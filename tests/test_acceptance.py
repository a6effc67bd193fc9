"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line on the real stdout so the verdicts
are visible in a plain `pytest -v` run, and enforces its wall-clock budget.
All comparisons are exact unless a line says otherwise.
"""

import math
import statistics
import time
from fractions import Fraction
from itertools import product as iter_product

import pytest

from mahlerlab.cli import main as cli_main
from mahlerlab.errors import FalsificationError
from mahlerlab.graphs import (
    complement,
    enumerate_p4_free_labeled,
    is_p4_free,
    polytope_from_graph,
)
from mahlerlab.polytope import (
    cross_polytope,
    cube,
    membership,
    polar,
    volume,
)
from mahlerlab.stability import (
    ExperimentConfig,
    random_unconditional_polytope,
    reconstruct_hanner,
    stability_experiment,
    symmetric_probe,
)
from mahlerlab.volprod import (
    corner_bound_instance,
    mahler_bound,
    meyer_inequality_check,
    section_membership_vector,
    truncated_cube,
    verify_truncated_cube_bound,
    volume_product,
)
from oracles import canon_facet, orthant_volume, path_graph, subset_facets, subset_vertices

F = Fraction


class criterion:
    """Context manager: prints `ACCEPTANCE k: PASS/FAIL - ...` past pytest's capture.

    Needs the capsys fixture, whose disabled() context is the supported way
    to reach the real terminal while file-descriptor capture is active.
    """

    def __init__(self, number: int, label: str, budget_s: float | None, capsys):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.capsys = capsys

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def _emit(self, verdict: str, detail: str) -> None:
        with self.capsys.disabled():
            print(f"\nACCEPTANCE {self.number}: {verdict} - {detail}", flush=True)

    def __exit__(self, exc_type, exc, tb) -> bool:
        dt = time.perf_counter() - self.t0
        if exc_type is not None:
            self._emit("FAIL", f"{self.label}: {exc} ({dt:.2f}s)")
            return False
        if self.budget_s is not None and dt > self.budget_s:
            self._emit("FAIL", f"{self.label}: exceeded {self.budget_s:.0f}s budget ({dt:.2f}s)")
            raise AssertionError(f"criterion {self.number} took {dt:.2f}s > {self.budget_s}s")
        self._emit("PASS", f"{self.label} ({dt:.2f}s)")
        return False


def test_criterion_1_cube_products_first_principles(capsys):
    volume.cache_clear()
    mahler_bound.cache_clear()
    with criterion(1, "cube volume products 4^n/n! for n = 1..6", 1.0, capsys):
        for n in range(1, 7):
            rep = volume_product(cube(n), body_id=f"cube-{n}")
            assert rep.product == F(4**n, math.factorial(n)), f"n = {n}"
            assert rep.vol_body == F(2) ** n
            assert rep.excess == 0 and rep.verdict


def test_criterion_2_path_ball_exceeds_the_cube(capsys):
    with criterion(2, "4-path ball: 12 vertices, pair facets, product 100/9", 5.0, capsys):
        body = polytope_from_graph(path_graph(4))
        assert body.n_vertices == 12
        expected_facets = set()
        for i, j in ((0, 1), (1, 2), (2, 3)):
            for si, sj in iter_product((1, -1), repeat=2):
                normal = [F(0)] * 4
                normal[i], normal[j] = F(si), F(sj)
                expected_facets.add(canon_facet(tuple(normal), F(1)))
        assert set(body.facets) == expected_facets
        assert volume(body) == F(10, 3)
        rep = volume_product(body, body_id="path-4")
        assert rep.product == F(100, 9)
        assert rep.product > mahler_bound(4) == F(32, 3)


def test_criterion_3_all_hanner_products_and_duality(capsys):
    volume.cache_clear()
    with criterion(3, "all Hanner balls n <= 5: product 4^n/n!, polar = complement", 120.0, capsys):
        for n in range(1, 6):
            bound = F(4**n, math.factorial(n))
            for g in enumerate_p4_free_labeled(n):
                p = polytope_from_graph(g)
                assert volume(p) * volume(polar(p)) == bound, f"n = {n}"
                assert polar(p) == polytope_from_graph(complement(g)), f"n = {n}"


def test_criterion_4_truncated_cube_grid(capsys):
    with criterion(4, "truncated-cube corner bound on 9-point grids, n = 3..5", 300.0, capsys):
        for n in (3, 4, 5):
            lo = F(n - 1, n)
            ball_product = volume(cube(n)) * volume(cross_polytope(n))
            for k in range(9):
                t = lo + F(k, 8) * (1 - lo)
                inst = corner_bound_instance(n, t)
                assert volume(inst.body_piece) == 1 - (1 - t) / math.factorial(n - 1)
                assert volume(inst.polar_piece) == F(1, math.factorial(n)) / t
                rep = verify_truncated_cube_bound(n, t)
                factor = 1 + F(1, 2 ** (n + 1)) * (1 - F(1, math.factorial(n - 1))) * (1 - t)
                assert rep.factor_bound == factor * ball_product
                assert rep.product >= rep.factor_bound
                assert rep.verdict


def test_criterion_5_section_inequality_across_families(capsys):
    with criterion(5, "membership vectors and the section inequality, 200+ bodies", 600.0, capsys):
        bodies = []
        for n in range(1, 5):
            bodies.append((f"cube-{n}", cube(n)))
            bodies.append((f"cross-{n}", cross_polytope(n)))
            for idx, g in enumerate(enumerate_p4_free_labeled(n)):
                bodies.append((f"hanner-{n}-{idx}", polytope_from_graph(g)))
        for seed in range(100):
            bodies.append((f"random-3-{seed}", random_unconditional_polytope(3, seed)))
        for seed in range(100, 200):
            bodies.append((f"random-4-{seed}", random_unconditional_polytope(4, seed)))
        assert sum(1 for name, _ in bodies if name.startswith("random")) == 200
        for name, body in bodies:
            m = section_membership_vector(body)  # raises if outside the polar
            assert membership(polar(body), m) != "outside"
            rep = meyer_inequality_check(body, body_id=name)
            assert rep.verdict, name
            if name.startswith("cube"):
                assert rep.is_equality, name


def test_criterion_6_reconstruction_identifies_every_hanner(capsys):
    with criterion(6, "reconstruction returns each generating graph at distance 0", 300.0, capsys):
        for n in range(1, 6):
            for g in enumerate_p4_free_labeled(n):
                rec = reconstruct_hanner(polytope_from_graph(g), body_id=f"hanner-{n}")
                assert rec.nearest_graph == g
                assert rec.distance_sq == 0
                assert rec.product_excess == 0
                assert is_p4_free(rec.nearest_graph)
        path_rec = reconstruct_hanner(polytope_from_graph(path_graph(4)), body_id="path-4")
        assert path_rec.case_tag == "caseII-path"
        assert path_rec.nearest_graph == path_graph(4)
        assert path_rec.distance_sq == 0 and path_rec.product_excess > 0


def test_criterion_7_perturbation_trend_and_determinism(capsys):
    with criterion(7, "100 trials per delta: gaps positive, medians shrink with delta", 900.0, capsys):
        medians = []
        for delta in (F(1, 10), F(1, 20), F(1, 40)):
            cfg = ExperimentConfig(n=3, trials=100, delta=delta, seed=0)
            records, csv_text, summary = stability_experiment(cfg)
            _, csv_again, _ = stability_experiment(cfg)
            assert csv_text == csv_again, "reruns must be byte-identical"
            for rec in records:
                assert rec.product_excess >= 0
                assert (rec.product_excess == 0) == (rec.distance_sq == 0)
            medians.append(statistics.median([r.product_excess for r in records]))
        assert medians[0] > medians[1] > medians[2] > 0


def test_criterion_8_symmetric_probe_stays_above_the_cube(monkeypatch, capsys):
    with criterion(8, "50 symmetric perturbations of the 3-cube keep the product bound", 600.0, capsys):
        report = symmetric_probe(cube(3), F(1, 20), trials=50, seed=0)
        assert report.trials == 50
        assert report.min_excess >= 0  # every product >= 32/3, exactly
        assert all(excess >= 0 for _, _, excess in report.records)
        # a violation must surface as the falsification exit code
        def erupting_probe(*args, **kwargs):
            raise FalsificationError("synthetic violation")

        monkeypatch.setattr("mahlerlab.cli.symmetric_probe", erupting_probe)
        code = cli_main(["stability", "--probe", "symmetric", "--n", "3", "--trials", "1"])
        assert code == 3


def test_criterion_9_volume_and_enumeration_against_oracles(capsys):
    with criterion(9, "volume and enumeration agree with brute-force oracles, n <= 4", None, capsys):
        suite = [
            cube(2),
            cross_polytope(2),
            cube(3),
            cross_polytope(3),
            truncated_cube(3, F(2, 3)),
            random_unconditional_polytope(3, 7),
            polytope_from_graph(path_graph(3)),
            cube(4),
            polytope_from_graph(path_graph(4)),
        ]
        for body in suite:
            assert volume(body) == orthant_volume(body)
            assert subset_vertices(body.facets, body.dim) == set(body.vertices)
            assert subset_facets(body.vertices, body.dim) == set(body.facets)
