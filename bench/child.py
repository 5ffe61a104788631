"""Measured child: one fresh interpreter per benchmark run.

    python3 bench/child.py PLAN.json RESULT.json

Imports ``jclaser.cli`` from the plan's source tree and drives
``jclaser.cli.main(argv)`` as a single client in a closed loop: the next
iteration starts when the previous one's CLI calls have returned.  An
iteration runs one input set; the loop cycles through the sets, at least
once, until the timed work reaches the plan's seconds.  Between iterations,
outside the timed window, the outputs are cleared and every one is gated.
With tracing on, each set runs untraced and then traced, so the overhead of
the spans is measured on the same inputs.

Each CLI call is timed on its own, between two runs of the host speed
kernel (``hostspeed.py``), and normalised to the reference host speed.  The
normalised time of a set is the sum over its calls of each call's median
normalised time, and that of a workload is the mean over its sets, which
cancels the dependence of the cost on the jitter.  The raw times, and the
same sums of each call's fastest raw time, go into the result as well.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gate
import tracing
from hostspeed import kernel_time, normalise

MAX_CHILD_S = 120.0  # stop cycling even if a much slower program has not used up its seconds


def blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, as the library left it."""
    out = {}
    maps = Path("/proc/self/maps").read_text()
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def run_steps(cli, steps: list[dict]) -> tuple[list[float], list[float], list]:
    """Time each of one iteration's CLI calls and the kernels around them.

    Returns the call times, the kernel times (one before each call and one
    after the last) and the exit codes; a call that raises yields its
    exception.
    """
    times, kernels, codes = [], [kernel_time()], []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for step in steps:
            start = time.perf_counter()
            try:
                codes.append(cli.main(list(step["argv"])))
            except Exception as exc:  # noqa: BLE001 - a crash fails the step's points, the loop goes on
                codes.append(exc)
            times.append(time.perf_counter() - start)
            kernels.append(kernel_time())
    return times, kernels, codes


def gate_steps(steps: list[dict], codes: list) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for step, code in zip(steps, codes):
        if isinstance(code, Exception):
            n = gate.points(step)
            fails = [f"{step['argv'][0]} raised {code!r}"] * n
        else:
            n, fails = gate.check(step)
            if code != 0 and not fails:
                fails = [f"{step['argv'][0]} exited {code} with outputs that pass"] * n
        attempted += n
        failures += fails
    return attempted, failures


def set_time(samples: list[list[list[float]]], stat) -> float:
    """Mean over input sets of the sum over a set's calls of ``stat`` of the call's times.

    ``samples[set][iteration][call]`` is one call's time in one iteration.
    """
    return statistics.mean(sum(map(stat, zip(*w))) for w in samples if w)


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import jclaser.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"jclaser imported from {cli.__file__}, not from {src}")
    out_dir = Path(plan["out_dir"])
    tracer = tracing.Tracer() if plan["trace"] else None
    modes = (False, True) if tracer else (False,)
    sets = plan["sets"]
    walls = {traced: [[] for _ in sets] for traced in modes}
    norms = {traced: [[] for _ in sets] for traced in modes}  # normalised call times
    kernel_all = []
    attempted, failures = 0, []
    timed, i, started = 0.0, 0, time.perf_counter()
    while i < len(sets) or (timed < plan["seconds"] and time.perf_counter() - started < MAX_CHILD_S):
        steps = sets[i % len(sets)]
        for traced in modes:
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            if traced:
                tracer.trace_id = i
                tracer.install()
            try:
                times, kernels, codes = run_steps(cli, steps)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced][i % len(sets)].append(times)
            norms[traced][i % len(sets)].append(list(map(normalise, times, kernels, kernels[1:])))
            kernel_all += kernels
            timed += sum(times) + sum(kernels)
            n, fails = gate_steps(steps, codes)
            attempted += n
            failures += fails
        i += 1

    result = {
        "iterations": i,
        "wall": walls[False],
        "wall_s": set_time(walls[False], min),
        "wall_norm_s": set_time(norms[False], statistics.median),
        "kernel_s": statistics.median(kernel_all),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer:
        layers = tracing.layer_metrics(tracer.spans, i)
        layers["trace.wall_s"] = set_time(norms[True], statistics.median)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["wall_norm_s"]
        layers["trace.self_share"] = layers["trace.self_s"] / statistics.mean(sum(w) for ws in walls[True] for w in ws)
        result["layers"] = layers
        with open(plan["spans_path"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
