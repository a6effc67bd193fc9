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
* facets of the hull of the sign orbits of closed-orthant points  <-  the
  rays of the same cone cut by ``a >= 0`` that pass the cover rule
  (``orthant_hull_facets``; the proof is in the ``polytope`` docstring).

A ray that survives with homogenizing coordinate t == 0 is a recession
direction, which is exactly how unbounded input announces itself.  Both
directions take and return the polytope's integer rows: a point V/t as (V, t),
a halfspace ``<A, x> <= B`` as (A, B).  An input
row supports a facet of the cone iff its set of tight rays is maximal among
the proper ones, read off the same bitmasks with no rank computation; in the
hull direction these rows are exactly the points that are vertices.  Every
conversion also returns those tight sets, the vertex-facet incidence in
Fukuda-Prodon form: the facets on each point (``hull_facets``), the points
on each facet (``orthant_hull_facets``) or the vertices on each inequality
(``polyhedron_vertices``), each a bitmask over the other list's indices.

A run starts from d independent rows and the rays one elimination on them
gives.  The orthant run knows its start with no elimination: for its first
point (V, t), t > 0, the rows ``-e_i`` and ``(V, -t)`` are independent; the
ray ``(t*e_i, V_i)``, made primitive, is tight on each of them but ``-e_i``
(``<V, t*e_i> - V_i*t = 0``) and gives ``-t < 0`` there, and
``(0, ..., 0, 1)`` is tight on every ``-e_i`` and gives ``-t`` on the point row.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .errors import DimensionError, PreconditionError, UnboundedError
from .ratlin import independent_rows, int_solve, primitive_int_vec

IntVec = tuple[int, ...]
Start = tuple[list[int], list[IntVec]]  # d independent row indices and the ray off each (``extreme_rays``)


def extreme_rays(rows: Sequence[IntVec], start: Start | None = None) -> tuple[list[IntVec], list[int]]:
    """Extreme rays of the pointed cone ``{x : <row, x> <= 0 for every row}``.

    Returns (rays, tight) where ``tight[k]`` is a bitmask over row indices
    marking the rows satisfied with equality by ray k.  Rays are primitive
    integer vectors.  Raises DimensionError when the rows do not have full
    rank (the cone then contains a line and has no extreme rays).

    A ``start`` is an initial simplicial subcone known in closed form: d
    independent rows, each with its primitive ray, tight on the other d - 1
    and strictly inside its own row.
    """
    if not rows:
        raise DimensionError("no rows")
    d = len(rows[0])

    # Else the initial simplicial subcone is cut out by the first d
    # independent rows (ratlin.independent_rows).  Its rays solve
    # B r_j = -e_j: one int_solve over the d columns returns (us, det),
    # r_j = u_j / det, and only the sign of det matters once each ray is made
    # primitive.  Ray j is then tight on every basis row but row j, with no
    # dot product.
    if start is None:
        basis = independent_rows(rows)
        if len(basis) < d:
            raise DimensionError("cone is not pointed (rows are rank deficient)")
        us, det = int_solve([rows[i] for i in basis], [[-int(i == j) for i in range(d)] for j in range(d)])
        rays = [primitive_int_vec(u if det > 0 else [-x for x in u]) for u in us]
    else:
        basis, rays = start
    basis_mask = sum(1 << i for i in basis)
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


def _convert(rows: Sequence[IntVec], start: Start | None = None) -> tuple[list[IntVec], list[bool], list[int]]:
    """Extreme rays of ``{x : <row, x> <= 0}``, a facet flag per input row, and its tight rays.

    The third list holds, per input row, the bitmask of the rays tight on it.
    Rows are primitive-reduced and merged before the cone run, and a
    ``start``'s row indices with them.  A row supports a facet iff its set of
    tight rays is maximal among the proper sets: every face lies in a facet,
    and distinct facets have incomparable ray sets.  The zero row is tight on
    every ray and is neither a facet nor a witness against one; any other row
    tight on every ray means the cone is flat.
    """
    index: dict[IntVec, int] = {}
    mapping = [index.setdefault(primitive_int_vec(r), len(index)) for r in rows]
    uniq = list(index)
    if start is not None:
        start = ([mapping[i] for i in start[0]], start[1])
    rays, tight = extreme_rays(uniq, start)

    sets = transpose(tight, len(uniq))
    full = (1 << len(rays)) - 1
    if any(s == full and any(r) for s, r in zip(sets, uniq)):
        raise DimensionError("cone is not full-dimensional")
    maximal = maximal_sets({s for s in sets if s != full})
    sets = [sets[k] for k in mapping]
    return rays, [s in maximal for s in sets], sets


def maximal_sets(sets: set[int]) -> set[int]:
    """The bitmasks in ``sets`` that no other one contains.

    This is the one face rule (Fukuda-Prodon): the facets of a face are the
    maximal proper sets among its tight sets.  The sets are scanned by
    decreasing size and a set is kept unless a kept one contains it: a strict
    superset is larger, so it is scanned, and kept or swallowed, first.
    """
    kept: list[int] = []
    for s in sorted(sets, key=int.bit_count, reverse=True):
        if not any(s & o == s for o in kept):
            kept.append(s)
    return set(kept)


def transpose(masks: Sequence[int], n: int) -> list[int]:
    """The bit matrix read by columns: bit k of column i is bit i of ``masks[k]``, for i < n."""
    cols = [0] * n
    for k, m in enumerate(masks):
        bit = 1 << k
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


def polyhedron_vertices(
    ineqs: Sequence[tuple[IntVec, int]], dim: int
) -> tuple[list[tuple[IntVec, int]], list[bool], list[int]]:
    """Vertices of ``{y : <A, y> <= B}`` for the given integer rows (A, B), facet flags and tight vertices.

    Returns (vertices, facet_flag per inequality, the vertices on each
    inequality as a bitmask), each vertex a primitive ray (V, t), t > 0.
    Raises UnboundedError if a recession direction survives and
    DimensionError when the feasible set is empty or not full-dimensional.
    """
    rows = [a + (-b,) for a, b in ineqs]
    rows.append((0,) * dim + (-1,))  # t >= 0
    rays, flags, sets = _convert(rows)
    if any(r[-1] == 0 for r in rays):
        raise UnboundedError("halfspace intersection is unbounded")
    return [(r[:-1], r[-1]) for r in rays], flags[:-1], sets[:-1]


def hull_facets(
    points: Sequence[tuple[IntVec, int]],
) -> tuple[list[tuple[IntVec, int]], list[bool], list[int]]:
    """Facets of ``conv(points)``, a flag per point marking the vertices, and the facets on each point.

    Each point V/t comes as (V, t), t > 0.  Each facet ``<A, x> <= B`` is a
    primitive extreme ray (A, B) of the cone
    ``{(a, s) : <p, a> <= s for every point p}``.  A point is a vertex
    exactly when its constraint supports a facet.  The third list holds, per
    point, the bitmask of the facets (by index) it lies on: its tight rays.
    """
    rows = [v + (-t,) for v, t in points]
    try:
        rays, flags, sets = _convert(rows)
    except DimensionError:
        raise DimensionError("point set is not full-dimensional") from None
    return [(r[:-1], r[-1]) for r in rays], flags, sets


def orthant_hull_facets(
    points: Sequence[tuple[IntVec, int]],
) -> tuple[list[tuple[IntVec, int]], list[bool], list[int]]:
    """Facets of the hull of the sign orbits of closed-orthant points, one per orbit, vertex flags and tight points.

    Each point V/t comes as (V, t), V >= 0, t > 0.  The cone is
    ``{(a, s) : a >= 0, <p, a> <= s for every point p}``: one row per point
    and one per ``a_i >= 0``, not one per point of the 2^n-fold orbits.  Its
    ray (A, B) is a facet of the hull iff every i with ``A_i = 0`` is nonzero
    on some point tight on it (the cover rule); each facet returned stands for
    its sign orbit.  A point is a vertex, up to sign, exactly when its
    constraint supports a facet of the cone.  The third list holds, per facet
    returned, the bitmask of the points (by index) tight on it.
    """
    if not points:
        raise DimensionError("point set is not full-dimensional")
    n = len(points[0][0])
    if any(x < 0 for v, _ in points for x in v):
        raise PreconditionError("orthant representatives need nonnegative coordinates")
    if not all(any(v[i] for v, _ in points) for i in range(n)):
        raise DimensionError("point set is not full-dimensional")
    rows = [v + (-t,) for v, t in points] + [tuple(-int(k == i) for k in range(n + 1)) for i in range(n)]
    v, t = points[0]  # the rows -e_i and (v, -t) cut out the closed-form start of the module docstring
    first = [primitive_int_vec((0,) * i + (t,) + (0,) * (n - 1 - i) + (v[i],)) for i in range(n)]
    rays, flags, sets = _convert(rows, ([len(points) + i for i in range(n)] + [0], first + [(0,) * n + (1,)]))
    sets = sets[: len(points)]
    cover = [0] * n  # coordinate i -> the rays tight on a point nonzero at i
    for (v, _), s in zip(points, sets):
        for i, x in enumerate(v):
            if x:
                cover[i] |= s
    on = transpose(sets, len(rays))  # ray k -> the points tight on it
    kept = [k for k, r in enumerate(rays) if all(cover[i] >> k & 1 for i, x in enumerate(r[:-1]) if not x)]
    return [(rays[k][:-1], rays[k][-1]) for k in kept], flags[: len(points)], [on[k] for k in kept]
