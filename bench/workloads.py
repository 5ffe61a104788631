"""The four benchmark workloads: README CLI commands with seeded inputs.

A run draws its input sets from its seed and cycles through them.  A
pump grid of N points over [lo, hi] is cut into N equal log cells; the seed
puts the lowest point anywhere in the first cell and the CLI's log grid
then moves every other point within its own cell, by less the higher it
sits, so the top pump is always ``hi``.  The top pump sets the largest
cutoff, and with it most of the time and the peak memory of a set, so
pinning it keeps those from depending on the seed.  Each sweep run has
``SETS`` sets, their offsets drawn from equal strata of the first cell;
the map run has one set, as its calls take seconds and the loop can only
time a few of them.  The spectra run has one set at a pump drawn from a
narrow range, as its cost grows with the pump.  The program receives only
the generated argv.

Each step is a plain dict (it travels to the measured child as JSON):
``kind`` names the gate that checks it, ``argv`` is what ``jclaser.cli.main``
gets, and the remaining keys are what the gate needs to know.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Rates of the README examples, in units of g.
GAMMA_A = 0.1
GAMMA_SIGMA = 0.00334
SETS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, str], list[list[dict]]]  # (rng, output dir) -> input sets


def _params(gamma_a: float, P_sigma: float = 0.0) -> dict:
    return {"g": 1.0, "gamma_a": gamma_a, "gamma_sigma": GAMMA_SIGMA,
            "gamma_phi": 0.0, "delta": 0.0, "P_sigma": P_sigma}


def jittered_log_grid(lo: float, hi: float, points: int, u: float) -> tuple[float, np.ndarray]:
    """Lowest pump at fraction u of the first of ``points`` log cells, top at hi.

    Returns the lowest pump and the grid, computed exactly as the CLI
    computes it from ``--sweep-min`` and ``--sweep-max``.
    """
    a = lo * (hi / lo) ** (u / points)
    return a, np.geomspace(a, hi, points)


def _strata(rng: random.Random, n: int) -> list[float]:
    return [(k + rng.random()) / n for k in range(n)]


def grid_sets(command: str, gamma_a: float, lo: float, hi: float, points: int, *extra: str, n_sets: int = SETS):
    """``n_sets`` sets of one ``sweep`` or ``transitions`` call each, over a jittered grid."""
    def build(rng: random.Random, out_dir: str) -> list[list[dict]]:
        sets = []
        for k, u in enumerate(_strata(rng, n_sets)):
            a, pumps = jittered_log_grid(lo, hi, points, u)
            out = f"{out_dir}/set{k}_{command}.csv"
            argv = [command, "--gamma-a", repr(gamma_a), "--gamma-sigma", repr(GAMMA_SIGMA),
                    "--sweep-min", repr(a), "--sweep-max", repr(hi), "--sweep-points", str(points),
                    *extra, "--workers", "1", "--out", out]
            sets.append([{"kind": command, "argv": argv, "out": out, "params": _params(gamma_a),
                          "pumps": [float(p) for p in pumps]}])
        return sets
    return build


def spectra_sets(lo: float, hi: float):
    """One set of four spectrum calls at a pump drawn log-uniformly from [lo, hi]."""
    def build(rng: random.Random, out_dir: str) -> list[list[dict]]:
        return [_spectra_set(lo * (hi / lo) ** rng.random(), lo, f"{out_dir}/set0_")]
    return build


def _spectra_set(P: float, lo: float, prefix: str) -> list[dict]:
    omega_laser = P / lo  # drive of the coherent comparison, in [1, hi/lo]
    common = ["--gamma-a", repr(GAMMA_A), "--gamma-sigma", repr(GAMMA_SIGMA), "--pump-sigma", repr(P),
              "--omega-min", "-20", "--omega-max", "20", "--points", "2001", "--workers", "1"]
    steps = []
    for channel, method in (("cavity", "exact"), ("emitter", "exact"), ("emitter", "approx")):
        out = f"{prefix}spectrum_{channel}_{method}.csv"
        steps.append({"kind": "spectrum", "method": method, "out": out, "params": _params(GAMMA_A, P),
                      "argv": ["spectrum", *common, "--channel", channel, "--method", method, "--out", out]})
    out = prefix + "mollow.csv"
    steps.append({"kind": "mollow", "out": out, "omega_laser": omega_laser, "gamma_sigma": 1.0,
                  "map_points": 41,
                  "argv": ["mollow-coherent", "--gamma-sigma", "1.0", "--omega-laser", repr(omega_laser),
                           "--map-points", "41", "--workers", "1", "--out", out]})
    return steps


# Why each workload (the one-line versions are in BENCHMARK.json):
# - pump_sweep: the README sweep from linear to thermal; the moments layer
#   does nearly all its work and exact is never called, so it is the
#   bypass case for any exact-engine change.
# - good_cavity_sweep: gamma_a = 0.01, where the moment route needs cutoffs
#   and digits several times those of pump_sweep.  It stops at P = 1.5
#   (n_a ~ 75) because above P ~ 1.6 the program's 40-digit sweep misses the
#   reference and a benchmark workload must not fail at its baseline.
# - transition_map: the README transitions map, many moderate
#   full-Liouvillian solves, cutoff doubling and dense eig, moments unused.
#   It stops at P = 15 because above P ~ 17 the program's cavity line
#   weights no longer sum to one within 1e-6.
# - spectra: one larger exact solve per channel, the approx rung spectrum,
#   and 1683 3x3 coherent eigensolves, the per-call-overhead opposite of
#   transition_map; spectra, lineshape and output work only here.  Its pump
#   stays in [6, 6.25], where the cost varies by about 2% across seeds, and
#   well below P = 9, where the program's emitter line weights drift from
#   one by more than 1e-6.
WORKLOADS = {w.name: w for w in (
    Workload("pump_sweep", grid_sets("sweep", GAMMA_A, 1e-4, 1e3, 50)),
    Workload("good_cavity_sweep", grid_sets("sweep", 0.01, 1e-3, 1.5, 24)),
    Workload("transition_map", grid_sets("transitions", GAMMA_A, 0.01, 15.0, 6, "--channel", "cavity", n_sets=1)),
    Workload("spectra", spectra_sets(6.0, 6.25)),
)}


def input_sets(workload: Workload, seed: int, out_dir: str) -> list[list[dict]]:
    """The run's input sets, in the order the closed loop cycles through them."""
    return workload.build(random.Random(f"{workload.name}:{seed}"), out_dir)
