"""Volume products, section inequalities, and the truncated-cube bound.

Everything here is exact rational arithmetic; the decimal columns of the
reports (``format_approx``) are printed approximations, never inputs to a
verdict.

Conventions used throughout: bodies are polytopes with the origin interior;
"section" means a coordinate-hyperplane section; for unconditional bodies the
polar of a section equals the section of the polar, which is what makes the
per-coordinate products on the right-hand sides below well defined.  The
four section checks read one memoised table per body, ``_section_volumes``:
it alone refuses a body that is not unconditional, applies counting measure
to the one-point section of an interval, and builds each section once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

from .errors import FalsificationError, PreconditionError
from .polytope import (
    Polytope,
    coordinate_section,
    cross_polytope,
    cube,
    from_halfspaces,
    from_vertices,
    gauge,
    is_unconditional,
    membership,
    polar,
    volume,
)
from .ratlin import dot, format_approx, format_exact, fr, unit_vec, vec


def _rat_json(x: Fraction) -> dict:
    return {"exact": format_exact(x), "approx": format_approx(x)}


# ---------------------------------------------------------------------------
# volume product


@dataclass(frozen=True)
class VolumeProductReport:
    body_id: str
    n: int
    vol_body: Fraction
    vol_polar: Fraction
    product: Fraction
    bound: Fraction
    excess: Fraction
    verdict: bool

    def to_json_dict(self) -> dict:
        return {
            "body_id": self.body_id,
            "n": self.n,
            "vol_body": _rat_json(self.vol_body),
            "vol_polar": _rat_json(self.vol_polar),
            "product": _rat_json(self.product),
            "bound": _rat_json(self.bound),
            "excess": _rat_json(self.excess),
            "verdict": self.verdict,
        }


VOLPROD_CSV_HEADER = "body_id,n,vol_body,vol_polar,product,product_float,bound,excess,excess_float,verdict"


def volume_product_csv_row(r: VolumeProductReport) -> str:
    return ",".join(
        [
            r.body_id,
            str(r.n),
            format_exact(r.vol_body),
            format_exact(r.vol_polar),
            format_exact(r.product),
            format_approx(r.product),
            format_exact(r.bound),
            format_exact(r.excess),
            format_approx(r.excess),
            str(r.verdict).lower(),
        ]
    )


@lru_cache(maxsize=None)
def mahler_bound(n: int) -> Fraction:
    """Volume product of the cube, computed from its honest volumes.

    Equals 4^n/n!; deliberately not hardcoded, so the bound itself exercises
    the volume machinery it is later compared against.
    """
    if n < 1:
        raise PreconditionError("dimension must be at least 1")
    c = cube(n)
    return volume(c) * volume(polar(c))


def volume_product(k: Polytope, body_id: str = "") -> VolumeProductReport:
    """Exact |K| * |K polar| with comparison against the cube's product."""
    vol_k = volume(k)
    vol_p = volume(polar(k))
    prod = vol_k * vol_p
    bound = mahler_bound(k.dim)
    return VolumeProductReport(
        body_id=body_id,
        n=k.dim,
        vol_body=vol_k,
        vol_polar=vol_p,
        product=prod,
        bound=bound,
        excess=prod - bound,
        verdict=prod >= bound,
    )


# ---------------------------------------------------------------------------
# coordinate sections


@lru_cache(maxsize=4096)
def _section_volumes(k: Polytope) -> tuple[tuple[Fraction, Fraction], ...]:
    """(|K cap e_j-perp|, |its polar|) for each coordinate j, memoised like ``volume``."""
    if not is_unconditional(k):
        raise PreconditionError("coordinate sections are read only for unconditional bodies")
    if k.dim == 1:
        return ((Fraction(1), Fraction(1)),)  # {0} under counting measure, and its polar
    sections = (coordinate_section(k, j) for j in range(k.dim))
    return tuple((volume(s), volume(polar(s))) for s in sections)


def section_products(k: Polytope) -> list[Fraction]:
    """Volume product of each coordinate section of an unconditional body."""
    return [v * w for v, w in _section_volumes(k)]


def section_membership_vector(k: Polytope) -> tuple[Fraction, ...]:
    """The vector with coordinates 2|K cap e_i-perp| / (n |K|).

    For unconditional K this vector always lies in the polar body; that
    membership is checked exactly and its failure raises, since it would
    contradict a proven inequality rather than indicate bad input.
    """
    scale = 2 / (k.dim * volume(k))
    m = vec([scale * v for v, _ in _section_volumes(k)])
    if membership(polar(k), m) == "outside":
        raise FalsificationError(
            f"section membership vector {tuple(map(format_exact, m))} fell outside the polar body"
        )
    return m


@dataclass(frozen=True)
class MeyerReport:
    body_id: str
    n: int
    product: Fraction
    section_sum: Fraction  # (4/n^2) * sum of section volume products
    per_section: tuple[Fraction, ...]
    verdict: bool
    is_equality: bool


def meyer_inequality_check(k: Polytope, body_id: str = "") -> MeyerReport:
    """P(K) >= (4/n^2) * sum_j P(K cap e_j-perp), exactly.

    Proven for unconditional bodies, so a violation raises FalsificationError
    instead of returning a false verdict; equality is flagged when exact.
    """
    per = tuple(section_products(k))
    n = k.dim
    lhs = volume(k) * volume(polar(k))
    rhs = Fraction(4, n * n) * sum(per)
    if lhs < rhs:
        raise FalsificationError(
            f"section inequality failed for {body_id or 'body'}: "
            f"{format_exact(lhs)} < {format_exact(rhs)}"
        )
    return MeyerReport(
        body_id=body_id,
        n=n,
        product=lhs,
        section_sum=rhs,
        per_section=per,
        verdict=True,
        is_equality=lhs == rhs,
    )


@dataclass(frozen=True)
class SectionBoundReport:
    """Near-minimal product hypothesis vs per-section conclusions.

    hypothesis_holds records whether P(K) <= (1+eps) * bound(n); the margins
    are conclusion slack per coordinate, bound(n-1)*(1+n*eps) - P(section_j).
    A failed hypothesis is an ordinary report state; a failed conclusion
    under a true hypothesis raises, because that would be a falsification.
    """

    body_id: str
    n: int
    eps: Fraction
    product: Fraction
    hypothesis_bound: Fraction
    hypothesis_holds: bool
    conclusion_bound: Fraction
    per_section: tuple[Fraction, ...]
    margins: tuple[Fraction, ...]
    conclusion_holds: bool


def near_minimal_sections_check(k: Polytope, eps, body_id: str = "") -> SectionBoundReport:
    """If P(K) is within (1+eps) of minimal, every section is within (1+n*eps)."""
    eps = fr(eps)
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")
    if k.dim < 2:
        raise PreconditionError("sections need dimension at least 2")
    per = tuple(section_products(k))
    n = k.dim
    product = volume(k) * volume(polar(k))
    hyp_bound = (1 + eps) * mahler_bound(n)
    hyp = product <= hyp_bound
    con_bound = (1 + n * eps) * mahler_bound(n - 1)
    margins = tuple(con_bound - x for x in per)
    con = all(m >= 0 for m in margins)
    if hyp and not con:
        worst = min(range(n), key=lambda j: margins[j])
        raise FalsificationError(
            f"section bound failed for {body_id or 'body'} at coordinate {worst}: "
            f"P(section) = {format_exact(per[worst])} exceeds {format_exact(con_bound)}"
        )
    return SectionBoundReport(
        body_id=body_id,
        n=n,
        eps=eps,
        product=product,
        hypothesis_bound=hyp_bound,
        hypothesis_holds=hyp,
        conclusion_bound=con_bound,
        per_section=per,
        margins=margins,
        conclusion_holds=con,
    )


# ---------------------------------------------------------------------------
# truncated cubes and the corner bound


def _check_truncation_level(n: int, t: Fraction) -> None:
    if not Fraction(n - 1, n) <= t <= 1:
        raise PreconditionError(f"t = {format_exact(t)} outside [(n-1)/n, 1]")


def truncated_cube(n: int, t) -> Polytope:
    """B-inf^n cut by sum |x_i| <= n*t, for (n-1)/n <= t <= 1.

    In that t range every coordinate section is the full subcube and the
    diagonal point (t, ..., t) sits on the boundary; both are checked on the
    body's gauge, raising FalsificationError, without building a section: a
    section of this unconditional body is the full subcube exactly when it
    holds its all-ones corner, and that corner has the same gauge in the
    section as the point with a 0 inserted has in the body.
    """
    t = fr(t)
    if n < 2:
        raise PreconditionError("truncated cubes need dimension at least 2")
    _check_truncation_level(n, t)
    k = from_halfspaces(list(cube(n).facets) + [(a, n * t) for a, _ in cross_polytope(n).facets], n)
    if any(gauge(k, vec(int(i != j) for i in range(n))) != 1 for j in range(n)):
        raise FalsificationError(f"a coordinate section of truncated_cube({n}, {format_exact(t)}) is not the subcube")
    if gauge(k, vec([t] * n)) != 1:
        raise FalsificationError(f"the diagonal point misses the boundary of truncated_cube({n}, {format_exact(t)})")
    return k


def corner_bound_factor(n: int, t) -> Fraction:
    """Exact factor 1 + 2^(-n-1) * (1 - 1/(n-1)!) * (1 - t), for n >= 3."""
    t = fr(t)
    if n < 3:
        raise PreconditionError("the corner bound is positive only from dimension 3 on")
    _check_truncation_level(n, t)
    c = 1 - Fraction(1, math.factorial(n - 1))
    return 1 + Fraction(1, 2 ** (n + 1)) * c * (1 - t)


def _corner_pieces(n: int, t: Fraction, q: tuple[Fraction, ...]) -> tuple[Polytope, Polytope]:
    """Build both corner pieces and check their closed-form volumes."""
    pts = [vec(map(Fraction, bits)) for bits in iter_product((0, 1), repeat=n) if sum(bits) < n]
    pts.append(vec([t] * n))
    body_piece = from_vertices(pts)
    want_p = 1 - (1 - t) / math.factorial(n - 1)
    got_p = volume(body_piece)
    if got_p != want_p:
        raise FalsificationError(
            f"corner piece volume {format_exact(got_p)} != closed form {format_exact(want_p)}"
        )
    qts = [vec([0] * n)] + [unit_vec(n, i) for i in range(n)] + [q]
    polar_piece = from_vertices(qts)
    want_q = Fraction(1, math.factorial(n)) / t
    got_q = volume(polar_piece)
    if got_q != want_q:
        raise FalsificationError(
            f"polar corner piece volume {format_exact(got_q)} != closed form {format_exact(want_q)}"
        )
    return body_piece, polar_piece


@dataclass(frozen=True)
class CornerBoundInstance:
    """One truncated-cube corner configuration.

    boundary_point is the diagonal point (t, ..., t) on the body's boundary;
    polar_point is the diagonal point (1/(nt), ..., 1/(nt)), so the two have
    inner product exactly 1.  The two pieces live in the positive orthant and
    their volumes were checked against the closed forms at construction.
    """

    n: int
    t: Fraction
    boundary_point: tuple[Fraction, ...]
    polar_point: tuple[Fraction, ...]
    body_piece: Polytope
    polar_piece: Polytope
    corner_constant: Fraction  # 1 - 1/(n-1)!


def corner_bound_instance(n: int, t) -> CornerBoundInstance:
    t = fr(t)
    if n < 3:
        raise PreconditionError("corner instances need dimension at least 3")
    _check_truncation_level(n, t)
    qv = vec([1 / (n * t)] * n)
    p = vec([t] * n)
    if dot(p, qv) != 1:
        raise FalsificationError(f"the diagonal points at t = {format_exact(t)} are not polar to each other")
    body_piece, polar_piece = _corner_pieces(n, t, qv)
    return CornerBoundInstance(
        n=n,
        t=t,
        boundary_point=p,
        polar_point=qv,
        body_piece=body_piece,
        polar_piece=polar_piece,
        corner_constant=1 - Fraction(1, math.factorial(n - 1)),
    )


@dataclass(frozen=True)
class TruncatedCubeReport:
    n: int
    t: Fraction
    product: Fraction
    factor: Fraction
    factor_bound: Fraction  # factor * mahler_bound(n)
    quadrant_bound: Fraction  # 4^n * |P| * |Q|
    slack_factor: Fraction
    slack_quadrant: Fraction
    verdict: bool


def verify_truncated_cube_bound(n: int, t) -> TruncatedCubeReport:
    """Check |K||K polar| against both corner-derived lower bounds, exactly.

    The quadrant bound 4^n |P| |Q| uses the symmetric case where all sign
    quadrants contribute the same piece; the factor bound multiplies the
    cube's product by corner_bound_factor.  Either failing raises, since both
    are proven inequalities for this family.
    """
    inst = corner_bound_instance(n, t)
    k = truncated_cube(n, inst.t)
    rep = volume_product(k, body_id=f"truncated_cube({n}, {format_exact(inst.t)})")
    factor = corner_bound_factor(n, inst.t)
    factor_bound = factor * mahler_bound(n)
    quadrant_bound = 4**n * volume(inst.body_piece) * volume(inst.polar_piece)
    ok = rep.product >= factor_bound and rep.product >= quadrant_bound
    if not ok:
        raise FalsificationError(
            f"truncated cube bound failed at n = {n}, t = {format_exact(inst.t)}: "
            f"product {format_exact(rep.product)}, factor bound {format_exact(factor_bound)}, "
            f"quadrant bound {format_exact(quadrant_bound)}"
        )
    return TruncatedCubeReport(
        n=n,
        t=inst.t,
        product=rep.product,
        factor=factor,
        factor_bound=factor_bound,
        quadrant_bound=quadrant_bound,
        slack_factor=rep.product - factor_bound,
        slack_quadrant=rep.product - quadrant_bound,
        verdict=True,
    )


# ---------------------------------------------------------------------------
# constant algebra


def combine_stability_constants(alpha, beta, gamma, n: int) -> tuple[Fraction, Fraction]:
    """eps = min(gamma/3, beta*gamma/(12n), 1/(2n)) and tau = min(alpha, n)."""
    a, b, g = fr(alpha), fr(beta), fr(gamma)
    if a <= 0 or b <= 0 or g <= 0 or n <= 0:
        raise PreconditionError("stability constants must be positive")
    eps = min(g / 3, b * g / (12 * n), Fraction(1, 2 * n))
    tau = min(a, Fraction(n))
    return eps, tau

