"""Per-layer tracing from outside the program.

A Tracer wraps the public functions of each invpoly module, replacing
every binding of each one across the loaded ``invpoly.*`` modules (a
function imported by name into another module is a second binding), and
restores them on exit.  Each wrapper records a span: its calls, and its
self time, which is the span's duration minus the time of the spans it
caused.  A few spans also record counts computed from the call's
arguments or result; kernel leaves are the size of the space each sweep
covers, computed from its arguments, not counted inside the kernel.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = {
    "kernels": ("admissible_counts", "matching_perms",
                "matching_perms_sorted_suffix"),
    "enumeration": ("enumerate_admissible", "enumerate_Ih",
                    "enumerate_Ih_structured", "B_k_set", "a_counts",
                    "b_counts", "fiber_data", "graded_Ih_oracle", "poincare"),
    "expansions": ("fiber_expansion", "b_expansion", "a_expansion", "a_from_b",
                   "degree_of", "is_constant"),
    "graded": ("verify_conjecture", "b_q_coefficients", "graded_expansion_eval"),
    # QPoly.__mul__ is left out: it is too hot to trace.
    "polynomials": ("q_seq_strongly_log_concave", "q_binom",
                    "QPoly.from_exponents", "BinomialPoly.to_monomial"),
    "posets": ("build_poset", "linear_extensions", "height_sequence",
               "b_from_heights", "d_S_of"),
    "model": ("is_admissible", "possible_pairs"),
    "cli": ("run_invariant_suite",),
}


def _full_sweep(args, result):
    return math.factorial(args[0])  # (n, pairs, ...): all of S_n


def _suffix_sweep(args, result):
    return math.perm(args[0], args[1])  # (n, m, ...): n!/(n-m)! heads


def _size(args, result):
    return len(result)


# span name -> extra stat -> how to compute it from (args, result)
EXTRAS = {
    "kernels.admissible_counts": {"leaves": _full_sweep},
    "kernels.matching_perms": {"leaves": _full_sweep, "matches": _size},
    "kernels.matching_perms_sorted_suffix": {"leaves": _suffix_sweep,
                                             "matches": _size},
    "enumeration.enumerate_admissible": {"classes": _size},
    "posets.linear_extensions": {"out": _size},
}

MATCH_KERNELS = ("kernels.matching_perms", "kernels.matching_perms_sorted_suffix")


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for stat in EXTRAS.get(name, ()):
            units[f"{name}.{stat}"] = "count"
    units["kernels.match_yield"] = "ratio"
    units["trace.overhead_s"] = "s"  # traced minus untraced wall_s
    return units


class Tracer:
    """Spans for one traced pass; read with snapshot(), clear with reset()."""

    def __init__(self):
        self._children: list[float] = []  # child time of each open span
        self.reset()

    def reset(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        extras = EXTRAS.get(name, {})
        children = self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                own_children = children.pop()
                self.calls[name] += 1
                self.self_s[name] += spent - own_children
                if children:
                    children[-1] += spent
            for stat, measure in extras.items():
                self.extra[f"{name}.{stat}"] += measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        for mod_name in LAYERS:
            importlib.import_module(f"invpoly.{mod_name}")
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "invpoly" or key.startswith("invpoly."))]
        undo = []
        try:
            for mod_name, fns in LAYERS.items():
                home = sys.modules[f"invpoly.{mod_name}"]
                for fn_name in fns:
                    name = f"{mod_name}.{fn_name}"
                    if "." in fn_name:  # a method: patch the class once
                        cls_name, meth = fn_name.split(".")
                        cls = getattr(home, cls_name)
                        raw = cls.__dict__[meth]
                        if isinstance(raw, classmethod):
                            new = classmethod(self._wrap(name, raw.__func__))
                        else:
                            new = self._wrap(name, raw)
                        undo.append((cls, meth, raw))
                        setattr(cls, meth, new)
                        continue
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                undo.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
            yield self
        finally:
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)

    def snapshot(self) -> tuple[dict[str, float], dict[str, float]]:
        """(exact, timed) metrics by name, zeros included.  Exact ones are
        counts and their ratios, which repeat from pass to pass."""
        exact, timed = {}, {}
        for name in span_names():
            exact[f"{name}.calls"] = self.calls.get(name, 0)
            timed[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            for stat in EXTRAS.get(name, ()):
                exact[f"{name}.{stat}"] = self.extra.get(f"{name}.{stat}", 0)
        leaves = sum(exact[f"{k}.leaves"] for k in MATCH_KERNELS)
        matches = sum(exact[f"{k}.matches"] for k in MATCH_KERNELS)
        exact["kernels.match_yield"] = matches / leaves if leaves else 0.0
        return exact, timed
