"""jclaser benchmark: README CLI workloads, timed end to end and gated.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run

1. draws the workload's input sets from the seed (``workloads.py``),
2. computes the high-precision references the gate needs (``reference.py``),
   outside any timed window,
3. times ``import jclaser.cli`` in several fresh interpreters (``setup_s``,
   untraced runs only, normalised to the reference host speed as in
   ``hostspeed.py``),
4. starts one fresh child (``child.py``) that drives ``jclaser.cli.main``
   in a closed loop for S seconds and gates every output (``gate.py``),
5. prints a line of run metadata and, last, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are its per-layer ones, from spans recorded around
every public ``jclaser`` function (``tracing.py``).  Run files, spans and
the full result go to ``.bench_run/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from reference import moment_reference
from workloads import WORKLOADS, Workload, input_sets

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
# Times the import, then the host speed kernel twice after a warm-up run; the
# kernel imports numpy, so it must not run before the timed import.
# argv[1] is the benchmark's directory.
PROBE = ("import sys, time; t = time.perf_counter(); import jclaser.cli as c; t = time.perf_counter() - t; "
         "sys.path.insert(0, sys.argv[1]); import hostspeed as h; h.kernel_time(); "
         "print(h.normalise(t, h.kernel_time(), h.kernel_time())); print(t); print(c.__file__)")


def attach_references(sets: list[list[dict]]) -> None:
    """Add the reference (n_a, g2) of every pump a step is gated on."""
    known: dict[tuple, tuple[float, float]] = {}  # the sets share their top pump

    def ref(params: dict) -> tuple[float, float]:
        key = tuple(sorted(params.items()))
        if key not in known:
            known[key] = moment_reference(params)
        return known[key]

    for steps in sets:
        for step in steps:
            if step["kind"] == "sweep":
                step["reference"] = [ref({**step["params"], "P_sigma": P}) for P in step["pumps"]]
            elif step["kind"] == "spectrum" and step["method"] == "exact":
                step["reference"] = ref(step["params"])


def setup_times(src: Path, env: dict, deadline: float) -> list[tuple[float, float]]:
    """(normalised, raw) seconds a fresh interpreter takes to import jclaser.cli, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-s", "-c", PROBE, str(BENCH_DIR)], env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()), check=True)
        seconds, raw, path = proc.stdout.split("\n")[:3]
        if src not in Path(path).resolve().parents:
            raise RuntimeError(f"setup probe imported jclaser from {path}")
        times.append((float(seconds), float(raw)))
    return times


def source_meta(src: Path) -> dict:
    files = sorted((src / "jclaser").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(src).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (src.parent / ".git").exists():
        commit = subprocess.run(["git", "-C", str(src.parent), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_jclaser_lines": lines}


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: int, src: Path,
                  spec: dict, deadline: float) -> tuple[dict, dict]:
    """One benchmark run from the current directory: (result, metadata)."""
    started = time.monotonic()
    run_dir = Path(".bench_run") / f"{workload.name}-s{seed}-t{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    sets = input_sets(workload, seed, str(run_dir / "out"))
    t0 = time.perf_counter()
    attach_references(sets)
    reference_s = time.perf_counter() - t0

    env = {**os.environ, "PYTHONPATH": str(src)}
    setup = [] if trace else setup_times(src, env, deadline)  # setup_s is not a per-layer metric

    plan = {"src": str(src), "out_dir": str(run_dir / "out"), "sets": sets, "seconds": seconds,
            "trace": trace, "spans_path": str(run_dir / "spans.jsonl")}
    plan_path, child_path = run_dir / "plan.json", run_dir / "child.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run([sys.executable, "-s", str(BENCH_DIR / "child.py"), str(plan_path), str(child_path)],
                   env=env, timeout=max(1.0, deadline - time.monotonic()), check=True)
    child = json.loads(child_path.read_text(encoding="utf-8"))

    if trace:
        measured = child["layers"]
        wanted = spec["per_layer"]
    else:
        measured = {"wall_norm_s": child["wall_norm_s"], "setup_s": statistics.median(s for s, _ in setup),
                    "peak_rss_mb": child["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    # a layer the workload never calls has no spans: its time and count are 0
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    meta = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "iterations": child["iterations"], "wall_s": child["wall_s"], "wall_s_by_set": child["wall"],
        "kernel_s": child["kernel_s"], "setup_s_all": setup,
        "reference_s": reference_s, "failures": child["failures"],
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": child["blas_threads"], **source_meta(src),
        "run_s": time.monotonic() - started,
    }
    result = {"correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps({"meta": meta, **result}, indent=1), encoding="utf-8")
    return result, meta


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM raises SystemExit, on which subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = (Path.cwd() / "src").resolve()
    if not (src / "jclaser" / "cli.py").is_file():
        print(f"no jclaser source tree at {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    result, meta = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, src, spec, deadline)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
