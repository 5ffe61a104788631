"""Deterministic CSV/JSON writers with self-describing config headers.

Every file carries the complete run configuration in a ``# config:`` comment
so that re-running from the header reproduces the file byte for byte.
Numbers are written with ``repr``, the shortest round-trip decimal form;
JSON writes a value that is not finite as ``null``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        return repr(v)
    if v is None:
        return ""
    return str(v)


def config_line(config: dict) -> str:
    parts = [f"{k}={format_value(config[k])}" for k in sorted(config)]
    return "# config: " + "; ".join(parts)


def _format_column(values) -> list[str]:
    if isinstance(values, np.ndarray) and values.dtype in (np.float64, np.bool_):
        # format_value's text: repr(nan) is "nan", repr(True) is "True"
        return list(map(repr, values.tolist()))
    return [format_value(v) for v in values]


def write_csv(path: str | Path, names: list[str], columns: list, config: dict) -> None:
    """One CSV line per row of ``columns``, a sequence of cells per name;
    a float64 or bool array column is formatted as a whole."""
    lines = [config_line(config), "# units: g=1", ",".join(names)]
    lines += map(",".join, zip(*map(_format_column, columns)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _plain(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None  # JSON has no nan or inf
    if isinstance(v, np.ndarray):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def write_json(path: str | Path, payload: dict, config: dict) -> None:
    doc = {"config": {k: format_value(v) for k, v in sorted(config.items())}, **_plain(payload)}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
