"""Certified lower bounds near the cube: truncation, corners, and sections.

Cutting the cube's two diagonal corners at depth 1-t produces a body whose
volume product can be bounded below by hand.  The pieces involved have
closed-form volumes, so every inequality printed here is checked exactly.
"""

from fractions import Fraction

from mahlerlab import (
    corner_bound_factor,
    corner_bound_instance,
    cross_polytope,
    cube,
    mahler_bound,
    meyer_inequality_check,
    near_minimal_sections_check,
    truncated_cube,
    volume,
    volume_product,
)
from mahlerlab.ratlin import format_approx, format_exact
from mahlerlab.volprod import combine_stability_constants, verify_truncated_cube_bound


def truncation_sweep(n: int) -> None:
    print(f"{'t':>6}  {'product':>12}  {'factor bound':>14}  {'quadrant bound':>15}")
    lo = Fraction(n - 1, n)
    for k in range(5):
        t = lo + (1 - lo) * Fraction(k, 5)
        rep = verify_truncated_cube_bound(n, t)
        assert rep.product >= rep.quadrant_bound >= rep.factor_bound
        print(
            f"{format_exact(t):>6}  {format_exact(rep.product):>12}"
            f"  {format_exact(rep.factor_bound):>14}  {format_exact(rep.quadrant_bound):>15}"
        )
    print(f"(mahler bound at n={n}: {format_exact(mahler_bound(n))})")


def corner_anatomy() -> None:
    inst = corner_bound_instance(3, Fraction(2, 3))
    print(f"boundary point {tuple(map(format_exact, inst.boundary_point))}")
    print(f"polar point    {tuple(map(format_exact, inst.polar_point))}, inner product 1")
    print(f"body piece volume:  {format_exact(volume(inst.body_piece))}")
    print(f"polar piece volume: {format_exact(volume(inst.polar_piece))}")
    print(f"corner constant:    {format_exact(inst.corner_constant)}")
    print(f"bound factor:       {format_exact(corner_bound_factor(3, Fraction(2, 3)))}")


def section_side() -> None:
    for body, name in ((cube(3), "cube-3"), (cross_polytope(3), "cross-3")):
        rep = meyer_inequality_check(body, body_id=name)
        tag = "equality" if rep.is_equality else "strict"
        print(f"{name}: section inequality holds, {tag}")
    # the window where the section route still certifies a gap
    eps = Fraction(191, 1800)
    rep = near_minimal_sections_check(truncated_cube(3, Fraction(9, 10)), eps, body_id="trunc-9/10")
    print(f"trunc(3, 9/10): product within (1 + {format_exact(eps)}) of the bound, "
          f"sections check passes")


def constants() -> None:
    c, d = combine_stability_constants(1, 1, 1, 3)
    print(f"combined constants at n=3 from (1, 1, 1): C = {format_exact(c)}, cap = {format_exact(d)}")
    r = volume_product(truncated_cube(3, Fraction(2, 3)), body_id="trunc-2/3")
    print(f"trunc(3, 2/3) excess over the bound: {format_exact(r.excess)}"
          f" ({format_approx(r.excess)})")


def main() -> None:
    print("== truncated cubes: exact product against both certified bounds ==")
    truncation_sweep(3)
    print()
    print("== the corner pieces behind the bound, at t = 2/3 ==")
    corner_anatomy()
    print()
    print("== section inequalities ==")
    section_side()
    print()
    print("== stability constants ==")
    constants()


if __name__ == "__main__":
    main()
