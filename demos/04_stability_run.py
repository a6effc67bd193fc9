"""Perturb a Hanner ball, then try to find the way back.

The reconstruction pipeline reads a generating graph from the body's
coordinate pairs, proposes its independent-set ball as a Hanner candidate,
and measures two gaps: squared Hausdorff distance to the candidate and
volume-product excess over 4^n/n!.  For a true Hanner input both gaps are
exactly zero.  Under perturbation every pair still reads as an edge or not,
so the candidate is a conservative witness; the excess is the gap that
actually tracks the perturbation size.
"""

from fractions import Fraction
from statistics import median

from mahlerlab import (
    ExperimentConfig,
    cube,
    from_edges,
    perturb_unconditional,
    polytope_from_graph,
    reconstruct_hanner,
    stability_experiment,
    symmetric_probe,
)
from mahlerlab.graphs import edges
from mahlerlab.ratlin import format_approx, format_exact
from mahlerlab.stability import nearest_hanner_bruteforce


def single_trial() -> None:
    base = from_edges(3, [(0, 1)])
    ball = polytope_from_graph(base)
    exact = reconstruct_hanner(ball, body_id="exact")
    assert exact.distance_sq == 0 and exact.product_excess == 0
    print(f"unperturbed ball of {edges(base)}: both gaps exactly zero, tag {exact.case_tag}")

    moved = perturb_unconditional(ball, Fraction(1, 40), seed=2)
    rec = reconstruct_hanner(moved, body_id="demo")
    print("perturbed at delta 1/40:")
    print(f"  pair graph:    {edges(rec.nearest_graph)}  (conservative)")
    print(f"  distance^2:    {format_approx(rec.distance_sq)}")
    print(f"  excess:        {format_exact(rec.product_excess)} ({format_approx(rec.product_excess)})")
    g, d = nearest_hanner_bruteforce(moved)
    print(f"  brute force:   nearest graph {edges(g)} at distance^2 {format_approx(d)}")
    assert d <= rec.distance_sq


def shrinking_medians() -> None:
    print(f"{'delta':>6}  {'min excess':>14}  {'median excess':>16}")
    meds = []
    for delta in (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)):
        cfg = ExperimentConfig(n=3, trials=20, delta=delta, seed=11)
        records, _, summary = stability_experiment(cfg)
        assert all(r.product_excess >= 0 for r in records)
        assert summary["min_excess"] == format_exact(min(r.product_excess for r in records))
        me = median([r.product_excess for r in records])
        meds.append(me)
        lo = format_approx(min(r.product_excess for r in records))
        print(f"{format_exact(delta):>6}  {lo:>14}  {format_approx(me):>16}")
    assert meds[0] > meds[1] > meds[2] > 0
    print("median excess strictly decreases as delta shrinks, and never hits zero")


def probe() -> None:
    # symmetric but not unconditional: outside the proven regime, so each
    # trial is a genuine test of minimality rather than a corollary
    rep = symmetric_probe(cube(3), Fraction(1, 20), trials=25, seed=3)
    print(f"trials: {rep.trials}, min excess: {format_exact(rep.min_excess)}"
          f" ({format_approx(rep.min_excess)})")
    assert rep.min_excess >= 0
    rerun = symmetric_probe(cube(3), Fraction(1, 20), trials=25, seed=3)
    assert rerun == rep
    print("rerun with the same seed is identical, record for record")


def main() -> None:
    print("== one perturbed ball, reconstructed two ways ==")
    single_trial()
    print()
    print("== excess medians over 20 seeded trials per delta ==")
    shrinking_medians()
    print()
    print("== symmetric (non-unconditional) probe of the 3-cube ==")
    probe()


if __name__ == "__main__":
    main()
