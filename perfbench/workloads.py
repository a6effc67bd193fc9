"""Workloads of the benchmark: fixed item universes, seeded passes, exact checks.

Every workload draws its items from a fixed, finite universe.  `expected.json`
pins the exact result of every universe item (as a hash) and sorts the items
of each group into cost strata, measured once when the file was recorded.
`pass_items` builds the item list of pass number ``pass_no`` of a run with a
given seed: each pass takes its quota of items evenly from the strata, so the
mix of cheap and dear items, and with it the run's throughput, does not swing
with the seed (README.md compares the spreads with and without strata); a
`hanner` pass runs half of its universe instead.
`Workload.run` computes one item, checks it against a known
fact, raises `WrongResult` if it fails, and returns its exact result string.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

from mahlerlab import graphs, polytope, stability, volprod

STRATA = 4  # cost strata per group; a group's quota per pass cycles through them
UNIVERSE = 128  # seeds per random group
CERT_EPS = Fraction(1, 10)
PERTURB_DELTA = Fraction(1, 10)
PROBE_DELTA = Fraction(1, 10)


class WrongResult(Exception):
    """An item's exact answer contradicts a known fact."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


def mahler(n: int) -> Fraction:
    """4^n/n!, written out rather than taken from the package under test."""
    return Fraction(4**n, math.factorial(n))


# ---------------------------------------------------------------------------
# hanner
#
# Why: graphs, hull DD and volume on the most degenerate 0/+-1 bodies, where
# about 72 % of the volume calls are cache hits (a Hanner ball's polar is
# another Hanner ball, and every volume reconstruct_hanner asks for is already
# known), plus the section-gluing recursion of reconstruct_hanner, whose cost
# grows like n!.  No distance work: hausdorff_distance_sq returns early when
# both bodies are equal.  Two passes in a row run every item once.


def graph_key(g: graphs.Graph) -> str:
    return f"{g.n}:" + ",".join(f"{i}-{j}" for i, j in graphs.edges(g))


def hanner_universe() -> list[tuple[str, str, object]]:
    gs = [g for n in range(1, 5) for g in graphs.enumerate_p4_free_labeled(n)]
    gs += graphs.enumerate_p4_free_classes(5)
    return [(f"n{g.n}", graph_key(g), g) for g in gs]


def hanner_half(tag: str, pass_no: int, universe: list, strata: dict[str, int]) -> list[tuple[str, object]]:
    """Half of the universe, alternating between the two halves of a seeded split.

    Two passes in a row run every item once.  A graph and its complement stay
    in one half, so the polar's ball is a cache hit as in a whole pass; each
    dimension is dealt out evenly between the halves.
    """
    rng = random.Random(tag)
    by_key = {key: (key, g) for _, key, g in universe}
    units: dict[str, list[list[str]]] = {}
    placed: set[str] = set()
    for group, key, g in universe:
        if key not in placed:
            unit = sorted({key, graph_key(graphs.complement(g))} & by_key.keys())
            placed.update(unit)
            units.setdefault(group, []).append(unit)
    halves: tuple[list, list] = ([], [])
    turn = 0
    for group in sorted(units):
        rng.shuffle(units[group])
        for unit in units[group]:
            halves[turn].extend(by_key[k] for k in unit)
            turn ^= 1
    items = halves[pass_no % 2]
    random.Random(f"{tag}:{pass_no}").shuffle(items)
    return items


def run_hanner(g: graphs.Graph) -> str:
    n = g.n
    ball = graphs.polytope_from_graph(g)
    rep = volprod.volume_product(ball)
    check(rep.product == mahler(n), f"product {rep.product} != 4^{n}/{n}!")
    check(
        polytope.polar(ball) == graphs.polytope_from_graph(graphs.complement(g)),
        "polar is not the complement graph's ball",
    )
    rec = stability.reconstruct_hanner(ball)
    check(rec.nearest_graph == g, "reconstruction returned another graph")
    check(rec.distance_sq == 0 and rec.product_excess == 0, "Hanner ball not at distance and excess 0")
    return f"{rep.vol_body}|{rep.vol_polar}|{rec.case_tag}"


# ---------------------------------------------------------------------------
# certificates
#
# Why: volume on generic rational bodies with larger integers, and sections
# of bodies and of their polars.  About 59 % of the volume calls are cache
# hits, all within an item (meyer_inequality_check and
# near_minimal_sections_check compute the same volumes); none are across
# items.  The truncated-cube grid (n = 3, 4, 5) adds the slowest single
# items.  No graph or distance work.


def grid_t(n: int, k: int) -> Fraction:
    lo = Fraction(n - 1, n)
    return lo + Fraction(k, 8) * (1 - lo)


def certificates_universe() -> list[tuple[str, str, object]]:
    items = [(f"body{n}", f"body:{n}:{s}", ("body", n, s)) for n in (3, 4) for s in range(UNIVERSE)]
    items += [("tcube", f"tcube:{n}:{k}", ("tcube", n, k)) for n in (3, 4, 5) for k in range(9)]
    return items


def run_certificates(item: tuple) -> str:
    kind, n, s = item
    if kind == "tcube":
        rep = volprod.verify_truncated_cube_bound(n, grid_t(n, s))
        check(rep.product >= mahler(n), "truncated cube below 4^n/n!")
        check(rep.slack_factor >= 0 and rep.slack_quadrant >= 0, "negative corner-bound slack")
        return f"{rep.product}|{rep.factor_bound}|{rep.quadrant_bound}"
    k = stability.random_unconditional_polytope(n, s)
    m = volprod.section_membership_vector(k)
    check(polytope.membership(polytope.polar(k), m) != "outside", "membership vector outside the polar")
    meyer = volprod.meyer_inequality_check(k)
    check(meyer.product >= mahler(n), "product below 4^n/n!")
    check(meyer.product >= meyer.section_sum, "section inequality violated")
    near = volprod.near_minimal_sections_check(k, CERT_EPS)
    check(near.product == meyer.product, "two product computations disagree")
    check(not near.hypothesis_holds or near.conclusion_holds, "near-minimal section bound violated")
    return f"{','.join(map(str, m))}|{meyer.product}|{','.join(map(str, meyer.per_section))}"


# ---------------------------------------------------------------------------
# perturb
#
# Why: the path of the `stability` command.  Distance and membership take
# most of the time; every body is fresh, so volume gets no cache hits.


def perturb_universe() -> list[tuple[str, str, object]]:
    return [
        (f"n{n}", f"{n}:{s}", stability.ExperimentConfig(n, 1, PERTURB_DELTA, s))
        for n in (3, 4)
        for s in range(UNIVERSE)
    ]


def run_perturb(cfg: stability.ExperimentConfig) -> str:
    records, csv_text, _ = stability.stability_experiment(cfg)
    (rec,) = records
    check(rec.product_excess >= 0, "product below 4^n/n!")
    if graphs.is_p4_free(rec.nearest_graph):
        check((rec.distance_sq == 0) == (rec.product_excess == 0), "zero distance and zero excess disagree")
    else:
        check(rec.product_excess > 0, "non-Hanner candidate attains the minimum")
    return csv_text.splitlines()[1]


# ---------------------------------------------------------------------------
# probe
#
# Why: the same distance and volume layers on bodies that are centrally
# symmetric but not unconditional, so a shortcut that relies on coordinate
# sign flips must show no change here: this workload is its bypass and guard.


def probe_universe() -> list[tuple[str, str, object]]:
    base = polytope.cube(3)
    return [("n3", str(s), (base, s)) for s in range(UNIVERSE)]


def run_probe(item: tuple) -> str:
    base, s = item
    report = stability.symmetric_probe(base, PROBE_DELTA, trials=1, seed=s)
    ((_, dist, excess),) = report.records
    check(excess >= 0, "symmetric 3-body below 4^3/3!")
    check(dist != 0 or excess == 0, "body at distance 0 from the cube has nonzero excess")
    return f"{dist}|{excess}"


# ---------------------------------------------------------------------------


def stratified(quota: dict[str, int]) -> Callable:
    """Selector taking `quota[group]` items per pass, cycling through the cost strata."""

    def select(tag: str, pass_no: int, universe: list, strata: dict[str, int]) -> list[tuple[str, object]]:
        rng = random.Random(f"{tag}:{pass_no}")
        pools: dict[tuple[str, int], list[tuple[str, object]]] = {}
        for group, key, inp in universe:
            pools.setdefault((group, strata[key]), []).append((key, inp))
        items = []
        for group, count in quota.items():
            per_stratum = Counter((pass_no * count + j) % STRATA for j in range(count))
            for stratum, k in sorted(per_stratum.items()):
                items += rng.sample(pools[group, stratum], k)
        rng.shuffle(items)
        return items

    return select


class Workload(NamedTuple):
    universe: Callable[[], list[tuple[str, str, object]]]  # (group, key, input)
    run: Callable[[object], str]
    select: Callable[[str, int, list, dict], list[tuple[str, object]]]  # a pass's items
    tail_pct: int  # percentile reported as item_tail_ms


WORKLOADS = {
    "hanner": Workload(hanner_universe, run_hanner, hanner_half, 95),
    "certificates": Workload(
        certificates_universe,
        run_certificates,
        stratified({"body3": 8, "body4": 3, "tcube": 1}),
        90,
    ),
    "perturb": Workload(perturb_universe, run_perturb, stratified({"n3": 8, "n4": 4}), 90),
    "probe": Workload(probe_universe, run_probe, stratified({"n3": 10}), 90),
}


def pass_items(name: str, seed: int, pass_no: int, strata: dict[str, int]) -> list[tuple[str, object]]:
    """Item list of pass `pass_no` of a run; `strata` maps item key to cost stratum."""
    w = WORKLOADS[name]
    return w.select(f"{name}:{seed}", pass_no, w.universe(), strata)
