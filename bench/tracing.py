"""Spans around the public functions of every ``jclaser`` module.

The wrappers live here, not in the program: ``install`` replaces each public
function in every ``jclaser`` module namespace that binds it (``exact``
binds ``lineshape.evaluate_lines``, ``cli`` binds ``output.write_csv``, the
package binds the ``params`` helpers), and ``uninstall`` puts the originals
back.  Spans stay in memory until the run writes them out.  A span is

    (trace_id, span_id, parent_id, name, start, end, note)

where ``trace_id`` is the closed-loop iteration, ``parent_id`` the
enclosing span (0 at the top) and ``note`` a count read at the boundary.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "jclaser"

# Scalar helpers evaluated once per Fock index or per table cell (10^4 calls
# per sweep): a span costs about a microsecond, more than these functions
# do, so they stay untraced and their time counts in their caller's span.
UNTRACED = {
    "params.gamma_T", "params.g_eff", "params.inv_C_eff", "params.C_eff",
    "moments.recurrence_coefficients", "output.format_value",
}

# Counts read at a boundary: name -> note(args, result).
NOTES = {
    "exact.steady_state": lambda args, res: res.space.n_max,
    "moments.solve_moments": lambda args, res: res.n_max,
    "exact.regression_sector": lambda args, res: res.generator.shape[0],
    "output.write_csv": lambda args, res: os.path.getsize(args[0]),
    "output.write_json": lambda args, res: os.path.getsize(args[0]),
}


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((self.trace_id, sid, parent, name, start, time.perf_counter(), None))
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            spans.append((self.trace_id, sid, parent, name, start, end, note(args, result) if note else None))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function defined in the package, where bound."""
        wrappers = {}
        for mod in _modules():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    name = mod.__name__[len(PACKAGE) + 1:] + "." + attr
                    if name not in UNTRACED:
                        wrappers[obj] = self._wrap(name, obj)
        for mod in _modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


def layer_metrics(spans: list[tuple], iterations: int) -> dict[str, float]:
    """Per-iteration self times, counts and boundary notes from spans.

    ``<module>.<function>.self_s`` and ``.calls`` exist for every traced
    name, ``<module>.self_s`` sums a module's functions; the derived counts
    attribute Liouvillian builds to the span that asked for them.
    """
    dur = {s[1]: s[5] - s[4] for s in spans}
    child = defaultdict(float)
    for s in spans:
        child[s[2]] += dur[s[1]]
    name_of = {s[1]: s[3] for s in spans}
    self_s, calls, notes = defaultdict(float), defaultdict(int), defaultdict(list)
    builds_by_parent = defaultdict(int)
    for s in spans:
        self_s[s[3]] += dur[s[1]] - child[s[1]]
        calls[s[3]] += 1
        if s[6] is not None:
            notes[s[3]].append(s[6])
        if s[3] == "exact.build_liouvillian":
            builds_by_parent[name_of.get(s[2], "")] += 1
    out: dict[str, float] = {}
    modules = defaultdict(float)
    for name in self_s:
        out[name + ".self_s"] = self_s[name] / iterations
        out[name + ".calls"] = calls[name] / iterations
        modules[name.split(".")[0]] += self_s[name]
    for mod, total in modules.items():
        out[mod + ".self_s"] = total / iterations
    n_ss = calls["exact.steady_state"]
    out["exact.steady_state.rounds"] = builds_by_parent["exact.steady_state"] / n_ss if n_ss else 0.0
    out["exact.steady_state.n_max_max"] = max(notes["exact.steady_state"], default=0)
    out["exact.regression_sector.rebuilds"] = builds_by_parent["exact.regression_sector"] / iterations
    out["exact.regression_sector.dim_sum"] = sum(notes["exact.regression_sector"]) / iterations
    n_mom = notes["moments.solve_moments"]
    out["moments.solve_moments.n_max_mean"] = sum(n_mom) / len(n_mom) if n_mom else 0.0
    out["output.bytes"] = (sum(notes["output.write_csv"]) + sum(notes["output.write_json"])) / iterations
    out["trace.self_s"] = sum(self_s.values()) / iterations
    return out
