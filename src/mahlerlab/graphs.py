"""Small graphs, P4-free structure, and their unit balls.

Graphs live on vertices 0..n-1 with adjacency stored as bitmasks, which keeps
every hot operation (complement, induced subgraph, independent-set search) a
couple of integer instructions.  The JSON interchange format is 1-based.

P4-free graphs (cographs) are generated only from cotrees: the canonical
unlabeled cotrees give one representative per isomorphism class, and the
labeled graphs are the orbits of those representatives under swaps of
neighbouring labels.

The bridge to geometry: a graph yields the polytope whose vertices are all
sign vectors supported on its maximal independent sets.  For P4-free graphs
this is exactly the Hanner polytope built by nesting l1 and linf sums along
the graph's cotree, and polarity corresponds to graph complement.  The code
never assumes that correspondence silently: `polytope_from_graph` always runs
a genuine convex hull, and it is the one construction of a Hanner ball, so
the duality and sum identities (``hanner_by_sums`` in ``tests/oracles.py``,
demo 02) stay checkable facts rather than definitions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Union

from .errors import ConsistencyError, FormatError, PreconditionError, ResourceError
from .polytope import Polytope, _orthant_hull, _row_membership, is_unconditional
from .ratlin import parse_int

MAX_VERTICES = 32


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on 0..n-1, adjacency as bitmasks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise PreconditionError(f"vertex count must be in 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ConsistencyError("adjacency list length disagrees with n")
        full = (1 << self.n) - 1
        for i, m in enumerate(self.adj):
            if m & ~full:
                raise ConsistencyError(f"vertex {i} has neighbors out of range")
            if m >> i & 1:
                raise ConsistencyError(f"vertex {i} has a self-loop")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.adj[i] >> j & 1) != (self.adj[j] >> i & 1):
                    raise ConsistencyError(f"adjacency not symmetric at ({i}, {j})")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise PreconditionError(f"bad edge ({i}, {j}) on {n} vertices")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def edges(g: Graph) -> list[tuple[int, int]]:
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.adj[i] >> j & 1]


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full & ~m) & ~(1 << i) for i, m in enumerate(g.adj)))


def is_p4_free(g: Graph) -> bool:
    """No induced path on four vertices.

    A 4-vertex induced subgraph is that path iff it has exactly three edges
    and degree sequence (1, 1, 2, 2); the other 3-edge options are the star
    (degree 3 present) and triangle-plus-isolated (degree 0 present).
    """
    for quad in combinations(range(g.n), 4):
        mask = 0
        for v in quad:
            mask |= 1 << v
        degs = sorted((g.adj[v] & mask).bit_count() for v in quad)
        if sum(degs) == 6 and degs == [1, 1, 2, 2]:
            return False
    return True


def _is_induced_cycle(g: Graph, cyc_mask: int) -> bool:
    members = [v for v in range(g.n) if cyc_mask >> v & 1]
    k = len(members)
    if any((g.adj[v] & cyc_mask).bit_count() != 2 for v in members):
        return False
    # degree-2 regular: a cycle iff connected
    seen = 1 << members[0]
    stack = [members[0]]
    while stack:
        v = stack.pop()
        rest = g.adj[v] & cyc_mask & ~seen
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            seen |= 1 << w
            stack.append(w)
    return seen == cyc_mask


def is_perfect_slow(g: Graph) -> bool:
    """Exhaustive odd-hole / odd-antihole scan, exponential; ``polytope_from_graph`` runs it when n <= 7."""
    h = complement(g)
    for k in range(5, g.n + 1, 2):
        for sub in combinations(range(g.n), k):
            mask = 0
            for v in sub:
                mask |= 1 << v
            if _is_induced_cycle(g, mask) or _is_induced_cycle(h, mask):
                return False
    return True


def maximal_independent_sets(g: Graph) -> list[int]:
    """All maximal independent sets as bitmasks, sorted ascending.

    Bron-Kerbosch with pivoting, run on the complement: maximal cliques of
    the complement are exactly the maximal independent sets of g.
    """
    comp = complement(g).adj
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pux = p | x
        pivot, best = -1, -1
        m = pux
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            c = (p & comp[u]).bit_count()
            if c > best:
                best, pivot = c, u
        cand = p & ~comp[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bit = 1 << v
            bk(r | bit, p & comp[v], x & comp[v])
            p &= ~bit
            x |= bit

    bk(0, (1 << g.n) - 1, 0)
    return sorted(out)


@lru_cache(maxsize=None)
def polytope_from_graph(g: Graph) -> Polytope:
    """Unit ball of the graph: hull of sign vectors on maximal independent sets.

    Well behaved for perfect graphs; anything else is accepted but flagged
    with a warning when small enough to check, since the dual 0-1 property
    then fails and downstream identities stop being meaningful.
    """
    if g.n <= 7 and not is_perfect_slow(g):
        warnings.warn("graph is not perfect; the ball is not a dual 0-1 polytope", stacklevel=2)
    return _orthant_hull([(tuple(m >> i & 1 for i in range(g.n)), 1) for m in maximal_independent_sets(g)])


def graph_from_polytope(p: Polytope) -> Graph:
    """Edge (i, j) iff e_i + e_j lies outside p, that is, gauge(p, e_i + e_j) > 1.

    Defined for unconditional bodies in standard position (every +-e_i on the
    boundary); inverse of polytope_from_graph on standard Hanner balls.  On a
    perturbed body any point e_i + e_j outside, however close, is an edge.
    With the origin interior, gauge 1 is the boundary and gauge above 1 the
    outside, so both tests are integer membership tests.
    """
    n = p.dim
    if not is_unconditional(p):
        raise PreconditionError("graph extraction needs an unconditional polytope")
    for i in range(n):
        if _row_membership(p, tuple(int(k == i) for k in range(n)), 1) != "boundary":
            raise PreconditionError("polytope is not normalized: e_%d is not on the boundary" % i)
    return _pair_graph(p)


def _pair_graph(p: Polytope) -> Graph:
    """The edge rule of `graph_from_polytope`, on a body already known to be
    unconditional and normalized (such as the output of normalize_unconditional)."""
    n = p.dim
    es = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if _row_membership(p, tuple(int(k in (i, j)) for k in range(n)), 1) == "outside"
    ]
    return from_edges(n, es)


# ---------------------------------------------------------------------------
# cotrees

HannerTree = tuple
# labeled form: ("leaf", i) with a 0-based coordinate, or (op, (children...))
# with op in {"l1", "linf"} and at least two children on disjoint coordinates

CotreeShape = Union[str, tuple]
# unlabeled canonical form used for enumeration: "leaf" or (op, (shapes...))


def _validate_tree(t: HannerTree) -> list[int]:
    """Returns the leaf coordinates in traversal order; raises on bad shape."""
    if not isinstance(t, tuple) or len(t) != 2:
        raise PreconditionError(f"malformed tree node: {t!r}")
    if t[0] == "leaf":
        if not isinstance(t[1], int) or t[1] < 0:
            raise PreconditionError(f"leaf wants a coordinate index, got {t[1]!r}")
        return [t[1]]
    op, children = t
    if op not in ("l1", "linf") or not isinstance(children, tuple) or len(children) < 2:
        raise PreconditionError("internal nodes need op in {l1, linf} and >= 2 children")
    leaves: list[int] = []
    for c in children:
        sub = _validate_tree(c)
        if set(sub) & set(leaves):
            raise PreconditionError("sibling subtrees share coordinates")
        leaves.extend(sub)
    return leaves


def hanner_from_tree(t: HannerTree) -> Polytope:
    """Standard Hanner polytope of a labeled cotree, leaves exactly 0..n-1: the ball of its graph.

    The nested l1/linf sums are checked against it in ``tests/oracles.py`` and demo 02.
    """
    return polytope_from_graph(tree_graph(t))


def tree_graph(t: HannerTree) -> Graph:
    """Cograph of a cotree: l1 nodes join their parts, linf nodes stack them."""
    leaves = _validate_tree(t)
    n = len(leaves)
    if sorted(leaves) != list(range(n)):
        raise PreconditionError("leaf coordinates must cover 0..n-1 exactly")
    es: list[tuple[int, int]] = []

    def walk(node: HannerTree) -> set[int]:
        if node[0] == "leaf":
            return {node[1]}
        op, children = node
        supports = [walk(c) for c in children]
        if op == "l1":
            for sa, sb in combinations(supports, 2):
                es.extend((i, j) for i in sa for j in sb)
        return set().union(*supports)

    walk(t)
    return from_edges(n, es)


@lru_cache(maxsize=None)
def cotree_shapes(n: int) -> tuple[CotreeShape, ...]:
    """Canonical unlabeled cotrees on n leaves, one per P4-free graph class.

    Canonical means children of an l1 node are leaves or linf-rooted and vice
    versa, and sibling subtrees appear in a fixed sorted order, so equal
    shapes are equal values.
    """
    if n < 1:
        raise PreconditionError("need at least one leaf")
    if n == 1:
        return ("leaf",)
    out: list[CotreeShape] = []
    for op in ("l1", "linf"):
        cands: list[tuple[int, CotreeShape]] = [(1, "leaf")]
        for s in range(2, n):
            cands.extend((s, sh) for sh in cotree_shapes(s) if sh[0] != op)
        cands.sort(key=lambda c: (c[0], repr(c[1])))

        def rec(rem: int, start: int, acc: list[CotreeShape]) -> None:
            if rem == 0:
                if len(acc) >= 2:
                    out.append((op, tuple(acc)))
                return
            for j in range(start, len(cands)):
                size, sh = cands[j]
                if size <= rem:
                    rec(rem - size, j, acc + [sh])

        rec(n, 0, [])
    return tuple(out)


def label_shape(shape: CotreeShape) -> HannerTree:
    """Assign consecutive coordinates 0..n-1 to a shape's leaves, in order."""
    counter = [0]

    def walk(node: CotreeShape) -> HannerTree:
        if node == "leaf":
            i = counter[0]
            counter[0] += 1
            return ("leaf", i)
        op, children = node
        return (op, tuple(walk(c) for c in children))

    return walk(shape)


def enumerate_p4_free_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of P4-free graphs on n vertices."""
    return [tree_graph(label_shape(s)) for s in cotree_shapes(n)]


def _swap_labels(adj: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The same graph with labels i and i+1 exchanged."""
    out = list(adj)
    out[i], out[i + 1] = out[i + 1], out[i]
    pair = 3 << i
    for k, m in enumerate(out):
        if (m >> i ^ m >> (i + 1)) & 1:
            out[k] = m ^ pair
    return tuple(out)


LABELED_MAX_N = 7  # 78 416 labeled P4-free graphs; 1 320 064 at n = 8


def check_hanner_request(n: int, dedup: bool) -> None:
    """Refuse a Hanner enumeration out of range before any graph is listed; the messages are the command line's."""
    if not 1 <= n <= LABELED_MAX_N:
        raise ResourceError(f"--n must be in 1..{LABELED_MAX_N}")
    if n == LABELED_MAX_N and not dedup:  # only the classes: the labeled balls are too many to build
        raise ResourceError(f"n = {n} without --dedup means 78416 labeled bodies; pass --dedup")


def enumerate_p4_free_labeled(n: int) -> list[Graph]:
    """Every labeled P4-free graph on vertices 0..n-1, sorted by adjacency.

    Each labeled graph is a relabeling of exactly one class representative,
    and swaps of neighbouring labels generate every relabeling, so closing
    the representatives under those swaps lists each graph once.
    """
    if not 1 <= n <= LABELED_MAX_N:
        raise ResourceError(f"labeled enumeration is intended for n <= {LABELED_MAX_N}")
    seen: set[tuple[int, ...]] = set()
    for g in enumerate_p4_free_classes(n):
        seen.add(g.adj)
        todo = [g.adj]
        while todo:
            adj = todo.pop()
            for i in range(n - 1):
                nxt = _swap_labels(adj, i)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return [Graph(n, adj) for adj in sorted(seen)]


def enumerate_standard_hanner(n: int, dedup: bool = False) -> list[tuple[Graph, Polytope]]:
    """Standard Hanner polytopes in R^n, paired with their graphs.

    Without dedup, one entry per labeled P4-free graph; with dedup, one per
    isomorphism class (canonical cotree representatives).  Every polytope is
    built from its independent-set vertices by an honest hull.
    """
    check_hanner_request(n, dedup)
    gs = enumerate_p4_free_classes(n) if dedup else enumerate_p4_free_labeled(n)
    return [(g, polytope_from_graph(g)) for g in gs]


# ---------------------------------------------------------------------------
# serialization


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[i + 1, j + 1] for i, j in edges(g)]}


def graph_from_json_dict(data: dict) -> Graph:
    """Parse 1-based {"n": ..., "edges": [[i, j], ...]}; strict about form."""
    try:
        n = parse_int(data["n"])
        raw = [(parse_int(i), parse_int(j)) for i, j in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad graph payload: {exc}") from exc
    if not 1 <= n <= MAX_VERTICES:
        raise FormatError(f"n must be in 1..{MAX_VERTICES}")
    seen = set()
    for i, j in raw:
        if not (1 <= i < j <= n):
            raise FormatError(f"edge [{i}, {j}] must satisfy 1 <= i < j <= n")
        if (i, j) in seen:
            raise FormatError(f"duplicate edge [{i}, {j}]")
        seen.add((i, j))
    return from_edges(n, [(i - 1, j - 1) for i, j in raw])


def tree_to_json_dict(t: HannerTree) -> dict:
    if t[0] == "leaf":
        return {"leaf": t[1] + 1}
    return {"op": t[0], "children": [tree_to_json_dict(c) for c in t[1]]}


def tree_from_json_dict(data: dict) -> HannerTree:
    """Parse {"leaf": i} / {"op": ..., "children": [...]} with 1-based leaves."""
    if not isinstance(data, dict):
        raise FormatError(f"tree node must be an object, got {type(data).__name__}")
    if "leaf" in data:
        try:
            i = parse_int(data["leaf"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad leaf index: {data['leaf']!r}") from exc
        if i < 1:
            raise FormatError("leaf indices are 1-based")
        return ("leaf", i - 1)
    try:
        op = data["op"]
        children = data["children"]
    except KeyError as exc:
        raise FormatError(f"tree node missing {exc}") from exc
    if op not in ("l1", "linf") or not isinstance(children, list) or len(children) < 2:
        raise FormatError("tree node needs op in {l1, linf} and >= 2 children")
    return (op, tuple(tree_from_json_dict(c) for c in children))
