"""The benchmark's correctness rules, applied to CLI outputs in tier-1.

``bench/gate.py`` refuses a benchmark run whose outputs break them; these
tests read the gate and the workload definitions as they are (never edited
here) and apply them to the exact spectra and the transition map at the
edges of what the workloads draw, and on the paths they do not draw: the
workloads are all resonant and map the cavity only.
"""

import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from jclaser.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``bench/gate.py`` and ``bench/workloads.py``, imported read-only."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("gate"), importlib.import_module("workloads")


class _Draw:
    """Stands in for the workload's random generator: every draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize("P", np.linspace(6.0, 6.25, 11))
def test_exact_spectra_pass_the_gate(bench, tmp_path, P):
    # the spectra workload draws its pump in [6, 6.25]; both exact spectra at
    # 11 pumps across that range, with the workload's argv and grid
    gate, workloads = bench
    u = math.log(P / 6.0) / math.log(6.25 / 6.0)
    (steps,) = workloads.WORKLOADS["spectra"].build(_Draw(u), str(tmp_path))
    exact = [s for s in steps if s["kind"] == "spectrum" and s["method"] == "exact"]
    assert len(exact) == 2 and all("--points" in s["argv"] for s in exact)
    for step in exact:
        assert main(step["argv"]) == 0
        side = json.loads(Path(step["out"]).with_suffix(".lines.json").read_text())
        assert gate.lines_problem(side["lines"]) == ""
        assert gate._grid_problem(step["out"], 2001) == ""


@pytest.mark.parametrize("u", [0.0, 1.0], ids=["lowest_jitter", "highest_jitter"])
def test_transition_map_passes_the_gate(bench, tmp_path, u):
    # the transition_map workload: 6 cavity pumps from 0.01 to 15, its lowest
    # pump anywhere in the first log cell
    gate, workloads = bench
    ((step,),) = workloads.WORKLOADS["transition_map"].build(_Draw(u), str(tmp_path))
    assert main(step["argv"]) == 0
    assert gate.check_transitions(step) == (6, [])


@pytest.mark.parametrize("P", [6.0, 6.25])
def test_detuned_exact_spectra_pass_the_gate(bench, tmp_path, P):
    # the spectra workload's two exact steps with a detuning, where the line
    # table samples both halves of the frequency axis
    gate, workloads = bench
    u = math.log(P / 6.0) / math.log(6.25 / 6.0)
    (steps,) = workloads.WORKLOADS["spectra"].build(_Draw(u), str(tmp_path))
    exact = [s for s in steps if s["kind"] == "spectrum" and s["method"] == "exact"]
    assert len(exact) == 2
    for step in exact:
        assert main([*step["argv"], "--delta", "0.5"]) == 0
        side = json.loads(Path(step["out"]).with_suffix(".lines.json").read_text())
        assert float(side["config"]["delta"]) == 0.5
        assert gate.lines_problem(side["lines"]) == ""
        assert gate._grid_problem(step["out"], 2001) == ""


@pytest.mark.parametrize("u", [0.0, 1.0], ids=["lowest_jitter", "highest_jitter"])
def test_emitter_transition_map_passes_the_gate(bench, tmp_path, u):
    # the transition_map workload on the emitter channel
    gate, workloads = bench
    ((step,),) = workloads.WORKLOADS["transition_map"].build(_Draw(u), str(tmp_path))
    assert main([*step["argv"], "--channel", "emitter"]) == 0
    assert gate.check_transitions(step) == (6, [])


@pytest.mark.parametrize("u", [0.0, 1.0], ids=["lowest_drive", "highest_drive"])
def test_mollow_step_passes_the_gate(bench, tmp_path, u):
    # the spectra workload's mollow-coherent step at both ends of its drive range
    gate, workloads = bench
    (steps,) = workloads.WORKLOADS["spectra"].build(_Draw(u), str(tmp_path))
    (step,) = [s for s in steps if s["kind"] == "mollow"]
    assert main(step["argv"]) == 0
    assert gate.check_mollow(step) == (1, [])


def test_readme_mollow_map_passes_the_gate(bench, tmp_path):
    # the README's mollow-coherent example, on its default grid and map
    gate, _ = bench
    out = str(tmp_path / "coherent.csv")
    argv = ["mollow-coherent", "--gamma-sigma", "1.0", "--omega-laser", "1.5", "--out", out]
    assert main(argv) == 0
    step = {"kind": "mollow", "out": out, "omega_laser": 1.5, "gamma_sigma": 1.0, "map_points": 41, "argv": argv}
    assert gate.check_mollow(step) == (1, [])
