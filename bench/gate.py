"""Correctness gate: every CLI output of a run is checked before it counts.

Tolerances are the ones pinned by the acceptance suite: 1e-8 relative for
values that two routes must agree on (C1), 1e-6 for line weights that must
sum to one (C2).  A point fails when the CLI reports an error for it, when
a value is missing, non-finite or unphysical (n_a < 0, n_sigma outside
[0, 1], g2 < 0, a negative line width), or when it misses its reference.
Each check returns (points attempted, one message per failed point).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from reference import coherent_weight

VALUE_RTOL = 1e-8
WEIGHT_ATOL = 1e-6
PUMP_RTOL = 1e-12  # matching a written pump to the one the argv asked for


def read_table(path: str) -> list[dict[str, str]]:
    """Rows of a jclaser CSV as dicts; the last column keeps any commas."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, ln.split(",", len(columns) - 1))) for ln in lines[1:]]


def _close(x: float, ref: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


def sweep_row_problem(row: dict[str, str], ref_na: float, ref_g2: float) -> str:
    """Why one sweep row fails the gate, or '' if it passes."""
    if row.get("error"):
        return f"CLI error: {row['error']}"
    try:
        n_a, n_sigma, g2 = (float(row[k]) for k in ("n_a_exact", "n_sigma_exact", "g2_exact"))
    except (KeyError, ValueError) as exc:
        return f"unreadable row: {exc}"
    if not all(math.isfinite(v) for v in (n_a, n_sigma, g2)):
        return "non-finite value"
    if n_a < 0.0 or not 0.0 <= n_sigma <= 1.0 or g2 < 0.0:
        return f"unphysical: n_a={n_a!r} n_sigma={n_sigma!r} g2={g2!r}"
    if not _close(n_a, ref_na):
        return f"n_a={n_a!r} vs reference {ref_na!r}"
    if not _close(g2, ref_g2):
        return f"g2={g2!r} vs reference {ref_g2!r}"
    return ""


def check_sweep(step: dict) -> tuple[int, list[str]]:
    pumps, refs = step["pumps"], step["reference"]
    rows = read_table(step["out"])
    if len(rows) != len(pumps):
        return len(pumps), [f"expected {len(pumps)} rows, got {len(rows)}"] * len(pumps)
    failures = []
    for P, (ref_na, ref_g2), row in zip(pumps, refs, rows):
        if not _close(float(row["P_sigma"]), P, PUMP_RTOL):
            problem = f"row for P={row['P_sigma']}"
        else:
            problem = sweep_row_problem(row, ref_na, ref_g2)
        if problem:
            failures.append(f"P={P!r}: {problem}")
    return len(pumps), failures


def lines_problem(lines: list[dict], elastic: float = 0.0) -> str:
    """Why a line table fails: weights must sum to one, widths be >= 0."""
    if not lines:
        return "empty line table"
    values = [ln[k] for ln in lines for k in ("omega", "gamma", "L", "K")]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values + [elastic]):
        return "non-finite line data"
    narrowest = min(ln["gamma"] for ln in lines)
    if narrowest < 0.0:
        return f"negative width {narrowest!r}"
    total = elastic + sum(ln["L"] for ln in lines)
    if abs(total - 1.0) > WEIGHT_ATOL:
        return f"weights sum to {total!r}"
    return ""


def check_transitions(step: dict) -> tuple[int, list[str]]:
    groups: list[tuple[float, list[dict]]] = []
    for row in read_table(step["out"]):
        P = float(row["P_sigma"])
        if not groups or groups[-1][0] != P:
            groups.append((P, []))
        groups[-1][1].append({k: float(row[k]) for k in ("omega", "gamma", "L", "K")})
    failures = []
    for P in step["pumps"]:
        lines = next((ls for Q, ls in groups if _close(Q, P, PUMP_RTOL)), [])
        problem = lines_problem(lines)
        if problem:
            failures.append(f"P={P!r}: {problem}")
    return len(step["pumps"]), failures


def _grid_problem(path: str, points: int) -> str:
    rows = read_table(path)
    if len(rows) != points:
        return f"{len(rows)} grid values, expected {points}"
    if not all(math.isfinite(float(r["S"])) for r in rows):
        return "non-finite spectrum value"
    return ""


def check_spectrum(step: dict) -> tuple[int, list[str]]:
    side = json.loads(Path(step["out"]).with_suffix(".lines.json").read_text(encoding="utf-8"))
    if step["method"] == "exact":
        # the exact engine has no delta line; its elastic_weight only
        # labels a subset of the lines, so the lines alone must sum to one
        problem = lines_problem(side["lines"])
        n_a = side["validity"].get("n_a", math.nan)
        if not problem and not _close(n_a, step["reference"][0]):
            problem = f"n_a={n_a!r} vs reference {step['reference'][0]!r}"
    else:
        problem = lines_problem(side["lines"], side["elastic_weight"])
    problem = problem or _grid_problem(step["out"], 2001)
    return 1, [f"{step['argv'][0]} {step['method']} {side['channel']}: {problem}"] if problem else []


def check_mollow(step: dict) -> tuple[int, list[str]]:
    out = Path(step["out"])
    side = json.loads(out.with_suffix(".lines.json").read_text(encoding="utf-8"))
    ref = coherent_weight(step["omega_laser"] * step["gamma_sigma"], step["gamma_sigma"])
    problem = lines_problem(side["lines"], side["elastic_weight"])
    if not problem and not _close(side["elastic_weight"], ref):
        problem = f"elastic weight {side['elastic_weight']!r} vs closed form {ref!r}"
    problem = problem or _grid_problem(step["out"], 2001)
    if not problem:
        vis = read_table(str(out.with_name(out.stem + "_visibility.csv")))
        values = [float(r["visibility"]) for r in vis]
        if len(vis) != step["map_points"] ** 2 or not all(0.0 <= v <= 1.0 for v in values):
            problem = "visibility map malformed or outside [0, 1]"
    return 1, [f"mollow-coherent: {problem}"] if problem else []


CHECKS = {"sweep": check_sweep, "transitions": check_transitions,
          "spectrum": check_spectrum, "mollow": check_mollow}


def points(step: dict) -> int:
    """Points a step attempts: one per pump of a sweep or map, else one."""
    return len(step.get("pumps", [None]))


def check(step: dict) -> tuple[int, list[str]]:
    """Gate one step's outputs; unreadable output fails every point."""
    try:
        return CHECKS[step["kind"]](step)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return points(step), [f"{step['kind']}: unreadable output: {exc!r}"] * points(step)
