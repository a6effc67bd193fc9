"""Per-layer tracing from outside the package.

`Tracer.install` wraps a fixed list of public functions of the layers
``ratlin``, ``dd``, ``polytope``, ``graphs``, ``volprod`` and ``stability``.
The package imports many of them by name into other modules
(``from .polytope import volume``), so the wrapper replaces every binding of
the same function object in every ``mahlerlab`` module; otherwise calls made
inside the package would bypass it.  Cached functions are wrapped outside
their ``lru_cache``, so a cache hit still counts as a call.

Each call is a span ``(id, parent id, item id, function, start, end)``; calls
made while the item list is built have item id -1.  Spans stay in memory
until `write_spans`.  Self time is a span's duration minus the durations of
its direct child spans; inclusive time counts only the outermost active call
of a function, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from itertools import count
from time import perf_counter

import mahlerlab

TRACED = (
    "ratlin.solve_linear",
    "ratlin.determinant",
    "ratlin.int_rank",
    "dd.extreme_rays",
    "dd.polyhedron_vertices",
    "dd.hull_facets",
    "polytope.from_vertices",
    "polytope.from_halfspaces",
    "polytope.coordinate_section",
    "polytope.volume",
    "polytope.polar",
    "polytope.gauge",
    "polytope.membership",
    "polytope.normalize_unconditional",
    "polytope.hausdorff_distance_sq",
    "graphs.enumerate_p4_free_labeled",
    "graphs.maximal_independent_sets",
    "graphs.polytope_from_graph",
    "volprod.volume_product",
    "volprod.section_products",
    "volprod.section_membership_vector",
    "volprod.meyer_inequality_check",
    "volprod.near_minimal_sections_check",
    "volprod.verify_truncated_cube_bound",
    "stability.glue_graphs",
    "stability.reconstruct_hanner",
    "stability.diagonal_truncation_check",
    "stability.perturb_unconditional",
    "stability.random_unconditional_polytope",
    "stability.stability_experiment",
    "stability.symmetric_probe",
)

CACHED = ("polytope.volume", "graphs.polytope_from_graph")

RAYS = TRACED.index("dd.extreme_rays")


def package_modules() -> list:
    """Every module of the package, importing the ones not loaded yet."""
    for info in pkgutil.iter_modules(mahlerlab.__path__):
        if info.name != "__main__":  # importing it would run the command line
            importlib.import_module(f"mahlerlab.{info.name}")
    return [m for name, m in sys.modules.items() if name == "mahlerlab" or name.startswith("mahlerlab.")]


class Tracer:
    def __init__(self) -> None:
        k = len(TRACED)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.incl_s = [0.0] * k
        self.rays_out = 0
        self.spans: list[tuple] = []
        self.item = -1
        self._depth = [0] * k
        self._stack: list[list] = []
        self._ids = count()
        self._originals: dict[str, object] = {}
        self._undo: list[tuple] = []

    def _wrap(self, idx: int, fn):
        stack, spans, ids, depth = self._stack, self.spans, self._ids, self._depth
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[idx] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_s[idx] += dur - frame[1]
                calls[idx] += 1
                depth[idx] -= 1
                if depth[idx] == 0:
                    incl_s[idx] += dur
                spans.append((sid, parent, tracer.item, idx, t0, t1))
            if idx == RAYS:
                tracer.rays_out += len(result[0])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", TRACED[idx])
        return traced

    def install(self) -> None:
        modules = package_modules()
        for idx, qual in enumerate(TRACED):
            mod, name = qual.split(".")
            orig = getattr(sys.modules[f"mahlerlab.{mod}"], name)
            self._originals[qual] = orig
            wrapper = self._wrap(idx, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each cached function that still has a cache."""
        out = {}
        for qual in CACHED:
            info = getattr(self._originals[qual], "cache_info", None)
            if info is not None:
                ci = info()
                out[qual] = (ci.hits, ci.misses)
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for idx, qual in enumerate(TRACED):
            out[f"{qual}.calls"] = self.calls[idx]
            out[f"{qual}.self_ms"] = 1000 * self.self_s[idx]
            out[f"{qual}.incl_ms"] = 1000 * self.incl_s[idx]
        out["dd.extreme_rays.rays_out"] = self.rays_out
        out["trace.setup_ms"] = 1000 * sum(t1 - t0 for _, parent, item, _, t0, t1 in self.spans if item == parent == -1)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": TRACED, "fields": ["id", "parent", "item", "function", "start", "end"], "spans": self.spans}, fh)
