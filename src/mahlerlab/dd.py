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
from typing import Sequence

from .errors import DimensionError, UnboundedError
from .ratlin import Vec, common_denominator, int_det, int_rank, primitive_int_vec

IntVec = tuple[int, ...]


def _idot(u: IntVec, v: IntVec) -> int:
    s = 0
    for a, b in zip(u, v):
        s += a * b
    return s


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

    basis: list[int] = []
    basis_rows: list[IntVec] = []
    for i, r in enumerate(rows):
        if int_rank(basis_rows + [r]) > len(basis):
            basis.append(i)
            basis_rows.append(r)
            if len(basis) == d:
                break
    if len(basis) < d:
        raise DimensionError("cone is not pointed (rows are rank deficient)")

    # Rays of the initial simplicial subcone solve B r_j = -e_j.  By Cramer's
    # rule r_j = -adj(B)[:, j] / det B; only the sign of det B matters once
    # the ray is made primitive.
    sign = 1 if int_det(basis_rows) > 0 else -1
    rays: list[IntVec] = []
    for j in range(d):
        minor = basis_rows[:j] + basis_rows[j + 1 :]
        col = [(-1) ** (i + j) * int_det([r[:i] + r[i + 1 :] for r in minor]) for i in range(d)]
        rays.append(primitive_int_vec(tuple(-sign * c for c in col)))

    basis_set = set(basis)
    tight: list[int] = []
    for r in rays:
        m = 0
        for i in basis:
            if _idot(rows[i], r) == 0:
                m |= 1 << i
        tight.append(m)

    thresh = d - 2
    for i, row in enumerate(rows):
        if i in basis_set:
            continue
        scores = [_idot(row, r) for r in rays]
        if all(s <= 0 for s in scores):
            bit = 1 << i
            for k, s in enumerate(scores):
                if s == 0:
                    tight[k] |= bit
            continue

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
    proper = {s for s in sets if s != full}
    maximal = {s for s in proper if not any(s != o and s & o == s for o in proper)}
    return rays, [sets[k] in maximal for k in mapping]


def polyhedron_vertices(
    ineqs: Sequence[tuple[Vec, Fraction]], dim: int
) -> tuple[list[Vec], list[bool]]:
    """Vertices of ``{y : <a,y> <= b}`` for the given (a, b) inequalities.

    Returns (vertices, facet_flag per inequality).  Raises UnboundedError if
    a recession direction survives and DimensionError when the feasible set
    is empty or not full-dimensional.
    """
    rows: list[IntVec] = []
    for a, b in ineqs:
        den = common_denominator(list(a) + [b])
        rows.append(tuple(int(x * den) for x in a) + (-int(b * den),))
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
    rows: list[IntVec] = []
    for p in points:
        den = common_denominator(p)
        rows.append(tuple(int(x * den) for x in p) + (-den,))
    try:
        rays, flags = _convert(rows)
    except DimensionError:
        raise DimensionError("point set is not full-dimensional") from None
    facets = [(tuple(Fraction(x) for x in r[:-1]), Fraction(r[-1])) for r in rays]
    return facets, flags
