"""Command-line entry point.

Subcommands: hanner-enumerate, volprod, verify, stability.  Every run prints
its full effective configuration as a rerunnable invocation line, and all
output is deterministic for a fixed seed: no timestamps, sorted JSON keys,
exact rationals as "p/q" strings next to decimal approximations.

Exit codes: 0 success, 2 usage/parse/IO errors, flags out of range and
requests refused as too large, 3 mathematical falsification events, 4
internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConsistencyError, FalsificationError, FormatError, PolarityDomainError, PreconditionError, ResourceError
from .graphs import (
    check_hanner_request,
    complement,
    cotree_shapes,
    enumerate_p4_free_labeled,
    enumerate_standard_hanner,
    graph_from_json_dict,
    graph_from_polytope,
    graph_to_json_dict,
    label_shape,
    polytope_from_graph,
    tree_from_json_dict,
    tree_to_json_dict,
)
from .polytope import cross_polytope, cube, from_json_dict, is_unconditional, polar, to_json_dict
from .ratlin import _clip, format_exact, parse_fraction
from .stability import (
    ExperimentConfig,
    check_stability_request,
    probe_csv,
    stability_experiment,
    symmetric_probe,
)
from .volprod import (
    mahler_bound,
    meyer_inequality_check,
    near_minimal_sections_check,
    truncated_cube,
    verify_truncated_cube_bound,
    volume_product,
)

def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _print_config(parts: list[str]) -> None:
    print("config: mahlerlab " + " ".join(parts))


def _write_out(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_delta(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise FormatError(f"bad --delta value {_clip(text)}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_hanner_enumerate(args: argparse.Namespace) -> int:
    check_hanner_request(args.n, args.dedup)  # refused before the config line, like every oversized request
    parts = ["hanner-enumerate", "--n", str(args.n)]
    if args.dedup:
        parts.append("--dedup")
    if args.out:
        parts.extend(["--out", args.out])
    _print_config(parts)
    bodies = enumerate_standard_hanner(args.n, dedup=args.dedup)
    bound = mahler_bound(args.n)
    entries = []
    for g, p in bodies:
        rep = volume_product(p, body_id=f"hanner-n{args.n}")
        if rep.product != bound:
            raise FalsificationError(
                f"Hanner ball of graph {graph_to_json_dict(g)['edges']} has product "
                f"{format_exact(rep.product)} != {format_exact(bound)}"
            )
        entries.append(
            {
                "graph": graph_to_json_dict(g),
                "polytope": to_json_dict(p),
                "volume_product": format_exact(rep.product),
            }
        )
    doc = {
        "n": args.n,
        "dedup": bool(args.dedup),
        "count": len(entries),
        "volume_product": format_exact(bound),
        "entries": entries,
    }
    text = _json(doc)
    if args.out:
        _write_out(args.out, text + "\n")
        print(f"wrote {len(entries)} entries to {args.out}")
    else:
        print(text)
    return 0


def cmd_volprod(args: argparse.Namespace) -> int:
    parts = ["volprod", args.polytope]
    if args.out:
        parts.extend(["--out", args.out])
    _print_config(parts)
    try:
        with open(args.polytope, "r", encoding="utf-8") as fh:
            data = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{args.polytope}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # the decoder's own; a recursion fault inside the package stays internal
        raise FormatError(f"{args.polytope}: JSON nested too deeply") from exc
    except ValueError as exc:  # a file that is not UTF-8, or an integer literal past Python's int digit limit
        raise FormatError(f"{args.polytope}: {exc}") from exc
    body = from_json_dict(data)
    try:
        rep = volume_product(body, body_id=args.polytope)
    except PolarityDomainError as exc:  # a valid body, but no polar to measure
        raise FormatError(f"{args.polytope}: the volume product needs the origin in the interior") from exc
    text = _json(rep.to_json_dict())
    if args.out:
        _write_out(args.out, text + "\n")
    print(text)
    if not rep.verdict and is_unconditional(body):
        print("falsification: unconditional body below the cube's volume product", file=sys.stderr)
        return 3
    return 0


def _suite_meyer() -> list[str]:
    lines = []
    for n in range(2, 5):
        count = 0
        for g in enumerate_p4_free_labeled(n):
            if not meyer_inequality_check(polytope_from_graph(g), body_id=f"hanner-n{n}").is_equality:
                raise FalsificationError(f"expected section-product equality for a Hanner ball at n = {n}")
            count += 1
        if not meyer_inequality_check(cube(n), body_id=f"cube-n{n}").is_equality:
            raise FalsificationError(f"expected section-product equality for the cube at n = {n}")
        lines.append(f"meyer n={n}: {count} Hanner balls exact, cube equality confirmed")
    return lines


def _require_sections(rep) -> None:
    if not (rep.hypothesis_holds and rep.conclusion_holds):
        raise FalsificationError(f"the near-minimal sections statement fails on {rep.body_id}")


def _suite_sections() -> list[str]:
    lines = []
    for n in range(2, 5):
        for g in enumerate_p4_free_labeled(n):
            _require_sections(near_minimal_sections_check(polytope_from_graph(g), 0, body_id=f"hanner-n{n}"))
        lines.append(f"sections n={n}: eps=0 margins nonnegative on all Hanner balls")
    k = truncated_cube(3, Fraction(9, 10))
    rep0 = volume_product(k)
    eps = rep0.product / rep0.bound - 1
    _require_sections(near_minimal_sections_check(k, eps, body_id="truncated-cube-3"))
    lines.append(f"sections truncated cube: measured eps {format_exact(eps)}, conclusion holds")
    return lines


def _suite_truncation() -> list[str]:
    lines = []
    for n in (3, 4):
        lo = Fraction(n - 1, n)
        for k in range(9):
            t = lo + Fraction(k, 8) * (1 - lo)
            rep = verify_truncated_cube_bound(n, t)
            lines.append(
                f"truncation n={n} t={format_exact(t)}: product {format_exact(rep.product)} "
                f">= {format_exact(rep.factor_bound)} (slack {format_exact(rep.slack_factor)})"
            )
    return lines


def _suite_duality() -> list[str]:
    lines = []
    for n in range(1, 6):
        count = 0
        for g in enumerate_p4_free_labeled(n):
            if polar(polytope_from_graph(g)) != polytope_from_graph(complement(g)):
                raise FalsificationError(
                    f"polar/complement mismatch at n = {n}, edges {graph_to_json_dict(g)['edges']}"
                )
            count += 1
        lines.append(f"duality n={n}: {count} graphs, polar matches complement exactly")
    return lines


def _require_inverse(roundtrip: str, back, original) -> None:
    if back != original:
        raise ConsistencyError(f"roundtrip {roundtrip} does not invert")


def _suite_roundtrip() -> list[str]:
    lines = []
    for n in range(1, 5):
        for g in enumerate_p4_free_labeled(n):
            p = polytope_from_graph(g)
            _require_inverse(f"graph -> polytope -> graph at n = {n}", graph_from_polytope(p), g)
            _require_inverse(f"polytope -> json -> polytope at n = {n}", from_json_dict(to_json_dict(p)), p)
            _require_inverse(f"graph -> json -> graph at n = {n}", graph_from_json_dict(graph_to_json_dict(g)), g)
        lines.append(f"roundtrip n={n}: graph/polytope/json all invert")
    for n in range(1, 6):
        for shape in cotree_shapes(n):
            t = label_shape(shape)
            _require_inverse(f"tree -> json -> tree at n = {n}", tree_from_json_dict(tree_to_json_dict(t)), t)
        lines.append(f"roundtrip trees n={n}: json inverts")
    cross = cross_polytope(3)
    _require_inverse("polytope -> json -> polytope on the 3-cross-polytope", from_json_dict(to_json_dict(cross)), cross)
    return lines


# suite name -> runner, read by the parser's choices and by cmd_verify
SUITES = {
    "meyer": _suite_meyer,
    "sections": _suite_sections,
    "truncation": _suite_truncation,
    "duality": _suite_duality,
    "roundtrip": _suite_roundtrip,
}


def cmd_verify(args: argparse.Namespace) -> int:
    _print_config(["verify", args.suite])
    for line in SUITES[args.suite]():
        print(line)
    print(f"suite {args.suite}: PASS")
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    delta = _parse_delta(args.delta)
    # flags out of range and requests too large are refused up front; a precondition failing later is not
    try:
        cfg = ExperimentConfig(n=args.n, trials=args.trials, delta=delta, seed=args.seed)
        check_stability_request(cfg, probe=args.probe == "symmetric")
    except PreconditionError as exc:
        raise FormatError(str(exc)) from exc
    parts = [
        "stability",
        "--n",
        str(args.n),
        "--trials",
        str(args.trials),
        "--delta",
        format_exact(delta),
        "--seed",
        str(args.seed),
        "--probe",
        args.probe,
    ]
    if args.out:
        parts.extend(["--out", args.out])
    _print_config(parts)
    if args.probe == "unconditional":
        _records, csv_text, summary = stability_experiment(cfg)
    else:
        report = symmetric_probe(cube(cfg.n), cfg.delta, cfg.trials, cfg.seed)
        csv_text = probe_csv(report)
        summary = {
            "n": report.n,
            "delta": format_exact(report.delta),
            "trials": report.trials,
            "seed": report.seed,
            "min_excess": format_exact(report.min_excess),
        }
    if args.out:
        _write_out(args.out, csv_text)
        print(f"wrote {args.trials} rows to {args.out}")
    else:
        print(csv_text, end="")
    print("summary: " + json.dumps(summary, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahlerlab",
        description="Exact volume products, Hanner polytopes, and stability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("hanner-enumerate", help="enumerate standard Hanner polytopes")
    p_enum.add_argument("--n", type=int, required=True, help="dimension, 1..7 (7 needs --dedup)")
    p_enum.add_argument("--dedup", action="store_true", help="one entry per isomorphism class")
    p_enum.add_argument("--out", help="write the JSON document to this path")
    p_enum.set_defaults(func=cmd_hanner_enumerate)

    p_vol = sub.add_parser("volprod", help="volume product of a polytope JSON file")
    p_vol.add_argument("polytope", help="path to a polytope JSON file")
    p_vol.add_argument("--out", help="also write the JSON report to this path")
    p_vol.set_defaults(func=cmd_volprod)

    p_ver = sub.add_parser("verify", help="run an exact verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.set_defaults(func=cmd_verify)

    p_st = sub.add_parser("stability", help="seeded perturbation experiments")
    p_st.add_argument("--n", type=int, default=3, help="dimension (default 3)")
    p_st.add_argument("--trials", type=int, default=100, help="trial count (default 100)")
    p_st.add_argument("--delta", default="1/10", help="perturbation size, rational string (default 1/10)")
    p_st.add_argument("--seed", type=int, default=0, help="randomness seed (default 0)")
    p_st.add_argument("--out", help="write the CSV to this path")
    p_st.add_argument(
        "--probe",
        choices=("unconditional", "symmetric"),
        default="unconditional",
        help="perturbation family (default unconditional)",
    )
    p_st.set_defaults(func=cmd_stability)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FalsificationError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort exit-code mapping
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
