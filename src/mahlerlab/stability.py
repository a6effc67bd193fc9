"""Reconstruction of near-Hanner bodies and randomized stability experiments.

A Hanner ball in standard position is fixed by one bit per coordinate pair:
whether e_i + e_j lies outside it.  Reconstruction normalizes the body and
reads every bit from the full body by the edge rule of
`graphs.graph_from_polytope`; the body of an empty or complete graph is
compared with the cube by `volprod.diagonal_truncation_check`.  A coordinate
section leaves the gauge of any point inside it unchanged, so each section
would read the same bits; `glue_graphs` keeps the gluing lemma that this
makes consistent, as a standalone combinatorial fact.  For an exact Hanner
ball the bits give its generator graph on the nose; for perturbed bodies
they give the candidate the distance is measured against.

A bit is set when e_i + e_j lies outside K, however close to its boundary;
that one rule, one integer membership test, decides every pair.  Entry
points that normalize leave the unconditional precondition to
`normalize_unconditional`, which checks it.

Everything random is driven by explicit integer seeds and exact rational
scales, so experiment outputs are reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import mul
from typing import Optional, Sequence

from .errors import (
    ConsistencyError,
    FalsificationError,
    PreconditionError,
    ResourceError,
)
from .graphs import (
    LABELED_MAX_N,
    Graph,
    _pair_graph,
    enumerate_p4_free_labeled,
    from_edges,
    is_p4_free,
    polytope_from_graph,
)
from .polytope import (
    Polytope,
    _axis_gauges,
    _hull,
    _orbit_weights,
    _orthant_hull,
    _primitive_row,
    hausdorff_distance_sq,
    normalize_unconditional,
    polar,
)
from .ratlin import format_approx, format_exact, fr, int_row
from .volprod import diagonal_truncation_check, mahler_bound, volume_product

CASE_TAGS = ("generic", "caseI-cube", "caseI-cross", "caseII-path")


@dataclass(frozen=True)
class StabilityRecord:
    body_id: str
    nearest_graph: Graph
    candidate: Polytope
    distance_sq: Fraction
    product_excess: Fraction
    case_tag: str
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    trials: int
    delta: Fraction
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", fr(self.delta))  # "1/10" reads as 1/10; a float is refused as inexact
        for what, x in (("n", self.n), ("trial count", self.trials), ("seed", self.seed)):
            if type(x) is not int:  # a bool is refused too; a float seed would reach the CSV
                raise TypeError(f"{what} must be an int, not {type(x).__name__}")
        if self.n < 1:
            raise PreconditionError("dimension must be at least 1")
        if self.trials < 0:
            raise PreconditionError("trial count must be nonnegative")
        if not 0 <= self.delta < 1:
            raise PreconditionError("delta must satisfy 0 <= delta < 1")


PROBE_MAX_DELTA = Fraction(1, 2)
PROBE_MAX_N = 5


def check_stability_request(cfg: ExperimentConfig, probe: bool = False) -> None:
    """Refuse a run out of range before any graph is listed or body is built; a probe's delta is reported first."""
    if probe and cfg.delta > PROBE_MAX_DELTA:
        raise PreconditionError(f"probe delta must satisfy 0 <= delta <= {PROBE_MAX_DELTA}")
    what, limit = ("the symmetric probe", PROBE_MAX_N) if probe else ("the stability experiment", LABELED_MAX_N)
    if cfg.n > limit:  # the experiment lists the labeled graphs, so it stops where they do
        raise ResourceError(f"{what} is limited to n <= {limit}")


# ---------------------------------------------------------------------------
# graph gluing


def glue_graphs(sections: Sequence[Graph]) -> Graph:
    """Union of n section graphs, section j living on coordinates != j.

    Vertex k of section j stands for original coordinate k if k < j, else
    k + 1.  Every pair (i, k) is seen by all sections j not in {i, k}; any
    disagreement between witnesses is an input inconsistency.  Once they
    agree, the result induces each section back, which is the gluing's whole
    point: every pair of section j is one of the votes.
    """
    n = len(sections)
    if n < 3:
        raise PreconditionError("gluing needs at least three sections")
    for j, g in enumerate(sections):
        if g.n != n - 1:
            raise PreconditionError(f"section {j} has {g.n} vertices, expected {n - 1}")
    es = []
    for i in range(n):
        for k in range(i + 1, n):
            votes = []
            for j in range(n):
                if j == i or j == k:
                    continue
                li = i if i < j else i - 1
                lk = k if k < j else k - 1
                votes.append((j, sections[j].adj[li] >> lk & 1))
            first_j, first = votes[0]
            for j, v in votes[1:]:
                if v != first:
                    raise ConsistencyError(
                        f"sections {first_j} and {j} disagree on pair ({i}, {k})"
                    )
            if first:
                es.append((i, k))
    return from_edges(n, es)


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct_hanner(k: Polytope, body_id: str = "", seed: int = 0) -> StabilityRecord:
    """Normalize, read the pair graph, and measure the distance.

    The graph is `graph_from_polytope` of the normalized body.  Case tags:
    an empty graph means the candidate is the cube and a complete one the
    cross polytope (both rechecked through the diagonal truncation bound
    from n = 3 on); a 4-path on four coordinates is its own tag since its
    ball is the one non-Hanner candidate the pair bits can produce there;
    all other graphs go through the plain independent-set ball.

    Two uniqueness facts are enforced exactly: for a Hanner candidate,
    distance zero and excess zero happen together; for a non-Hanner graph
    the excess must be strictly positive.
    """
    kn = normalize_unconditional(k)
    n = kn.dim
    g = _pair_graph(kn)  # kn is unconditional, with unit axis gauges by construction
    candidate = polytope_from_graph(g)
    p4_free = is_p4_free(g)
    if not any(g.adj):  # the empty graph
        tag = "caseI-cube"
        if n >= 3:
            diagonal_truncation_check(kn)
    elif all(m.bit_count() == n - 1 for m in g.adj):  # the complete graph
        tag = "caseI-cross"
        if n >= 3:
            diagonal_truncation_check(polar(kn))
    elif n == 4 and not p4_free:
        tag = "caseII-path"
    else:
        tag = "generic"
    dist = hausdorff_distance_sq(kn, candidate)
    excess = volume_product(kn, body_id=body_id).excess
    if excess < 0:
        raise FalsificationError(
            f"unconditional body {body_id or ''} has product excess {format_exact(excess)} < 0"
        )
    if p4_free:
        if (dist == 0) != (excess == 0):
            raise FalsificationError(
                f"uniqueness violated for {body_id or 'body'}: distance_sq {format_exact(dist)}, "
                f"excess {format_exact(excess)}"
            )
    elif excess == 0:
        raise FalsificationError(
            f"{body_id or 'body'} attains the minimal product but its graph is not P4-free"
        )
    return StabilityRecord(body_id, g, candidate, dist, excess, tag, seed)


def nearest_hanner_bruteforce(k: Polytope) -> tuple[Graph, Fraction]:
    """Certified nearest standard Hanner ball by exhaustive search (n <= 4)."""
    if k.dim > 4:
        raise ResourceError("brute-force nearest Hanner is limited to n <= 4")
    kn = normalize_unconditional(k)
    scored = ((g, hausdorff_distance_sq(kn, polytope_from_graph(g))) for g in enumerate_p4_free_labeled(kn.dim))
    return min(scored, key=lambda gd: gd[1])


# ---------------------------------------------------------------------------
# perturbations


def perturb_unconditional(h: Polytope, delta, seed: int) -> Polytope:
    """Scale each positive-orthant vertex representative by a random factor.

    Factors are exact rationals in [1 - delta, 1], drawn per representative
    from a generator seeded with `seed`.  The scaled representatives are
    mapped into standard position by their axis gauges (``_axis_gauges``)
    before the one hull of their sign orbits (``_orthant_hull``), so the
    result is unconditional by construction and in standard position: the
    body ``normalize_unconditional`` makes of their hull, as a positive
    diagonal map commutes with sign flips and hulls.
    """
    delta = ExperimentConfig(h.dim, 0, delta, seed).delta  # delta and seed checked as the experiment checks them
    hn = normalize_unconditional(h)
    rng = random.Random(seed)
    scaled = []
    for v, t in hn._vertex_reps:  # the closed positive orthant
        scale = 1 - delta * Fraction(rng.randrange(2**16 + 1), 2**16)
        scaled.append(_primitive_row([x * scale.numerator for x in v], scale.denominator * t))
    gs = _axis_gauges(scaled, hn.dim)
    if gs is not None:
        srow, ds = int_row(gs)
        scaled = [_primitive_row(map(mul, srow, v), ds * t) for v, t in scaled]
    return _orthant_hull(scaled)


def random_unconditional_polytope(n: int, seed: int) -> Polytope:
    """Seeded unconditional body: the cross polytope plus random sign orbits."""
    if n < 1:
        raise PreconditionError("dimension must be at least 1")
    rng = random.Random(seed)
    reps = [(tuple(int(k == i) for k in range(n)), 1) for i in range(n)]  # the e_i
    reps += [_primitive_row([rng.randint(12, 48) for _ in range(n)], 48) for _ in range(rng.randint(1, 3))]
    return _orthant_hull(reps)


# ---------------------------------------------------------------------------
# experiments


def _is_complete_multipartite(g: Graph) -> bool:
    """Non-adjacency, each vertex apart from itself, is an equivalence relation: its classes are the parts."""
    full = (1 << g.n) - 1
    apart = [full & ~m for m in g.adj]  # vertex i -> the vertices not adjacent to it, i among them
    return all(apart[j] == a for a in apart for j in range(g.n) if a >> j & 1)


@lru_cache(maxsize=None)
def trial_base_graphs(n: int) -> tuple[Graph, ...]:
    """P4-free graphs whose balls respond to representative rescaling, computed once per n.

    When the maximal independent sets are pairwise disjoint, rescaling the
    positive-orthant representatives is a diagonal map and re-normalization
    undoes it exactly, so those bases would only ever produce zero rows.
    They are excluded unless nothing else exists (n <= 2).  The maximal
    independent sets of G are the maximal cliques of its complement, which
    are pairwise disjoint iff the complement is a disjoint union of cliques:
    iff G is complete multipartite, its parts the classes of non-adjacency.
    """
    gs = enumerate_p4_free_labeled(n)
    rich = [g for g in gs if not _is_complete_multipartite(g)]
    return tuple(rich or gs)


EXPERIMENT_CSV_HEADER = "trial,n,delta,distance_sq,distance_float,excess,excess_float,case_tag,seed"


def stability_experiment(cfg: ExperimentConfig) -> tuple[list[StabilityRecord], str, dict]:
    """Run seeded perturbation trials; returns (records, csv_text, summary).

    Each trial perturbs a random non-degenerate Hanner base and reconstructs;
    rows are exact, the summary carries the minimum and median excess plus
    the empirical excess/(bound * distance) floor.
    """
    check_stability_request(cfg)
    bases = trial_base_graphs(cfg.n)
    bound = mahler_bound(cfg.n)
    records: list[StabilityRecord] = []
    rows = [EXPERIMENT_CSV_HEADER]
    case_counts = {tag: 0 for tag in CASE_TAGS}
    min_ratio: Optional[float] = None
    for i in range(cfg.trials):
        tseed = cfg.seed * 1_000_003 + i
        trng = random.Random(tseed)
        base = bases[trng.randrange(len(bases))]
        body = perturb_unconditional(polytope_from_graph(base), cfg.delta, trng.randrange(2**31))
        rec = reconstruct_hanner(body, body_id=f"trial-{i}", seed=tseed)
        records.append(rec)
        case_counts[rec.case_tag] += 1
        dist_f = math.sqrt(float(rec.distance_sq))
        if rec.distance_sq > 0:
            ratio = float(rec.product_excess) / (float(bound) * dist_f)
            min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
        rows.append(
            ",".join(
                [
                    str(i),
                    str(cfg.n),
                    format_exact(cfg.delta),
                    format_exact(rec.distance_sq),
                    repr(dist_f),
                    format_exact(rec.product_excess),
                    repr(float(rec.product_excess)),
                    rec.case_tag,
                    str(tseed),
                ]
            )
        )
    csv_text = "\n".join(rows) + "\n"
    excesses = [r.product_excess for r in records]
    summary = {
        "n": cfg.n,
        "trials": cfg.trials,
        "delta": format_exact(cfg.delta),
        "seed": cfg.seed,
        "min_excess": format_exact(min(excesses)) if excesses else None,
        "median_excess": format_exact(statistics.median(excesses)) if excesses else None,
        "median_excess_approx": format_approx(statistics.median(excesses)) if excesses else None,
        "min_ratio": min_ratio,
        "zero_distance_trials": sum(1 for r in records if r.distance_sq == 0),
        "case_counts": case_counts,
    }
    return records, csv_text, summary


# ---------------------------------------------------------------------------
# symmetric (non-unconditional) probe


@dataclass(frozen=True)
class SymmetricProbeReport:
    n: int
    delta: Fraction
    trials: int
    seed: int
    min_excess: Fraction
    records: tuple[tuple[int, Fraction, Fraction], ...]  # (trial, distance_sq, excess)


PROBE_CSV_HEADER = "trial,distance_sq,distance_float,excess,excess_float"


def symmetric_probe(h: Polytope, delta, trials: int, seed: int) -> SymmetricProbeReport:
    """Move antipodal vertex pairs together by exact random jitter.

    The result is centrally symmetric but generally not unconditional, which
    probes minimality outside the proven regime: any negative excess is a
    falsification event and raises immediately.
    """
    cfg = ExperimentConfig(h.dim, trials, delta, seed)
    check_stability_request(cfg, probe=True)
    hn = normalize_unconditional(h)
    reps = list(compress(hn.vertex_rows, _orbit_weights(hn.vertex_rows, 1)))  # one vertex of each +- pair
    shift, unit = cfg.delta.numerator, cfg.delta.denominator * 2**13  # each jitter is shift * r / unit
    records = []
    min_excess: Optional[Fraction] = None
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        rows = []
        for v, den in reps:
            # x/den + shift*r/unit over the denominator den*unit
            w, s = _primitive_row([x * unit + shift * den * rng.randint(-(2**12), 2**12) for x in v], den * unit)
            rows += [(w, s), (tuple(-x for x in w), s)]
        body = _hull(rows)
        excess = volume_product(body, body_id=f"probe-{t}").excess
        if excess < 0:
            raise FalsificationError(
                f"symmetric probe trial {t} produced excess {format_exact(excess)} < 0"
            )
        dist = hausdorff_distance_sq(body, hn)
        records.append((t, dist, excess))
        min_excess = excess if min_excess is None else min(min_excess, excess)
    return SymmetricProbeReport(
        n=hn.dim,
        delta=cfg.delta,
        trials=trials,
        seed=seed,
        min_excess=min_excess if min_excess is not None else Fraction(0),
        records=tuple(records),
    )


def probe_csv(report: SymmetricProbeReport) -> str:
    rows = [PROBE_CSV_HEADER]
    for t, dist, excess in report.records:
        rows.append(
            ",".join(
                [
                    str(t),
                    format_exact(dist),
                    repr(math.sqrt(float(dist))),
                    format_exact(excess),
                    repr(float(excess)),
                ]
            )
        )
    return "\n".join(rows) + "\n"
