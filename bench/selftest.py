"""The benchmark's own tests.

    python3 bench/selftest.py

Run from the root of a source checkout; it writes only under .bench_run/.
It runs every workload for one cycle at a tiny size, checks that the gate fails
doctored outputs (n_a < 0, n_a off its reference by 1e-6, line weights off
by 1e-5, a negative width, a wrong elastic weight), checks the reference
against the 200-digit good-cavity value, and checks that the benchmark
refuses to run without a source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gate
from reference import moment_reference
from run import BENCH_DIR, run_benchmark
from workloads import GAMMA_A, WORKLOADS, Workload, grid_sets

TINY = [
    Workload("pump_sweep", grid_sets("sweep", GAMMA_A, 1e-4, 1e3, 6)),
    Workload("good_cavity_sweep", grid_sets("sweep", 0.01, 1e-3, 1.5, 4)),
    Workload("transition_map", grid_sets("transitions", GAMMA_A, 0.01, 15.0, 2, "--channel", "cavity")),
    WORKLOADS["spectra"],
]


def tiny_runs() -> dict[str, dict]:
    """Each workload for one cycle, untraced and traced; returns the plans by name."""
    src = Path("src").resolve()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    plans = {}
    for w in TINY:
        for trace in (0, 1):
            result, meta = run_benchmark(w, 7, 0.0, trace, src, spec, time.monotonic() + 170.0)
            assert result["correct"] and result["failed"] == 0, (w.name, meta["failures"])
            assert result["attempted"] >= 1
            kind = spec["per_layer"] if trace else spec["end_to_end"]
            assert set(result["metrics"]) == {m["name"] for m in kind}
            if trace:
                share = result["metrics"]["trace.self_share"]["value"]
                assert share >= 0.9, (w.name, share)
            else:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
        plans[w.name] = json.loads(Path(f".bench_run/{w.name}-s7-t0/plan.json").read_text(encoding="utf-8"))
    return plans


def doctored(step: dict, tmp: Path, edit) -> dict:
    """A copy of a step whose output files are copied to ``tmp`` and edited."""
    out = Path(step["out"])
    for f in out.parent.glob(out.stem + "*"):
        shutil.copy(f, tmp / f.name)
    step = {**step, "out": str(tmp / out.name)}
    edit(Path(step["out"]))
    return step


def replace_column(path: Path, row: int, column: str, fn) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    columns = lines[start].split(",")
    cells = lines[start + 1 + row].split(",", len(columns) - 1)
    k = columns.index(column)
    cells[k] = repr(fn(float(cells[k])))
    lines[start + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_lines(path: Path, fn) -> None:
    side = path.with_suffix(".lines.json")
    doc = json.loads(side.read_text(encoding="utf-8"))
    fn(doc)
    side.write_text(json.dumps(doc), encoding="utf-8")


def gate_flags_doctored_outputs(plans: dict[str, dict]) -> None:
    tmp = Path(".bench_run/selftest_doctored")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # each untraced tiny run left the outputs of its last set in place
    sweep = plans["pump_sweep"]["sets"][-1][0]
    assert gate.check(sweep) == (6, [])
    for name, fn in (("negative n_a", lambda v: -v), ("n_a off by 1e-6", lambda v: v * (1 + 1e-6))):
        n, fails = gate.check(doctored(sweep, tmp, lambda p: replace_column(p, 3, "n_a_exact", fn)))
        assert (n, len(fails)) == (6, 1), (name, fails)
    n, fails = gate.check(doctored(sweep, tmp, lambda p: replace_column(p, 2, "g2_exact", lambda v: v * (1 + 1e-6))))
    assert len(fails) == 1, fails

    tmap = plans["transition_map"]["sets"][-1][0]
    assert gate.check(tmap) == (2, [])
    n, fails = gate.check(doctored(tmap, tmp, lambda p: replace_column(p, 0, "L", lambda v: v + 1e-5)))
    assert (n, len(fails)) == (2, 1), fails

    cavity, emitter, approx, mollow = plans["spectra"]["sets"][-1]
    for step in (cavity, emitter, approx, mollow):
        assert gate.check(step) == (1, []), step["out"]

    def negative_width(doc):
        doc["lines"][0]["gamma"] = -1e-9
    assert len(gate.check(doctored(cavity, tmp, lambda p: edit_lines(p, negative_width)))[1]) == 1

    def off_weight(doc):
        doc["elastic_weight"] *= 1 + 1e-6
    assert len(gate.check(doctored(mollow, tmp, lambda p: edit_lines(p, off_weight)))[1]) == 1

    def off_n_a(doc):
        doc["validity"]["n_a"] *= 1 + 1e-6
    assert len(gate.check(doctored(emitter, tmp, lambda p: edit_lines(p, off_n_a)))[1]) == 1


def reference_matches_high_precision_value() -> None:
    # gamma_a = 0.01, P = 7: the 200-digit sweep and a float64 sector solve
    # agree on 343.71090778055; low cutoffs give -1.0168 or 0.135
    p = {"g": 1.0, "gamma_a": 0.01, "gamma_sigma": 0.00334, "gamma_phi": 0.0, "delta": 0.0, "P_sigma": 7.0}
    n_a, _ = moment_reference(p)
    assert abs(n_a - 343.71090778055) <= 1e-11 * n_a, n_a


def refuses_without_source_tree() -> None:
    bare = Path(".bench_run/selftest_bare").resolve()
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pump_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and "correct" not in proc.stdout, (proc.returncode, proc.stdout)


def main() -> int:
    plans = tiny_runs()
    print("ok tiny runs of", ", ".join(plans))
    gate_flags_doctored_outputs(plans)
    print("ok gate flags doctored outputs")
    reference_matches_high_precision_value()
    print("ok reference matches the high-precision value")
    refuses_without_source_tree()
    print("ok refuses to run without a source tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
