import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jclaser.cli import main
from jclaser.output import parse_config_header


def run(argv):
    return main(argv)


def test_steady_single_point(tmp_path):
    out = tmp_path / "steady.csv"
    code = run(
        ["steady", "--gamma-a", "0.1", "--gamma-sigma", "0.00334",
         "--pump-sigma", "7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "# units: g=1"
    header = lines[2].split(",")
    body = lines[3].split(",")
    row = dict(zip(header, body))
    assert float(row["n_a_exact"]) == pytest.approx(28.93999535557046, rel=1e-10)
    assert row["regime"] == "Lasing"
    assert abs(float(row["g2_cothermal"]) - float(row["g2_exact"])) < 0.05


def test_sweep_round_trip_reproducible(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--gamma-a", "0.5", "--gamma-sigma", "0.00334",
            "--sweep-min", "0.01", "--sweep-max", "10", "--sweep-points", "4"]
    assert run(args + ["--out", str(out1)]) == 0
    # re-run from the header of the first file
    cfg = parse_config_header(out1)
    rebuilt = ["sweep"]
    for k, v in cfg.items():
        if k == "command":
            continue
        rebuilt += [f"--{k.replace('_', '-')}", v]
    assert run(rebuilt + ["--out", str(out2)]) == 0
    body1 = out1.read_text().splitlines()[1:]
    body2 = out2.read_text().splitlines()[1:]
    assert body1 == body2


def test_sweep_partial_failure_exit_code(tmp_path):
    out = tmp_path / "s.csv"
    # gamma_a = 0 sweep crosses the divergence at P = gamma_sigma
    code = run(
        ["sweep", "--gamma-a", "0", "--gamma-sigma", "1.0", "--sweep-min", "0.1",
         "--sweep-max", "10", "--sweep-points", "4", "--out", str(out)]
    )
    assert code == 4
    text = out.read_text()
    assert "NoSteadyStateError" in text


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma-a = 0.2\npump-sigma = 1.0\ngamma-sigma = 0.05\n")
    out = tmp_path / "st.csv"
    code = run(["steady", "--config", str(cfg), "--pump-sigma", "2.0", "--out", str(out)])
    assert code == 0
    header_cfg = parse_config_header(out)
    assert header_cfg["gamma_a"] == "0.2"
    assert header_cfg["pump_sigma"] == "2.0"  # flag wins over file


def test_config_error_exit_code(tmp_path):
    code = run(["sweep", "--sweep-min", "5", "--sweep-max", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line without equals\n")
    assert run(["steady", "--config", str(bad)]) == 2


def test_spectrum_files(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(
        ["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "7",
         "--method", "exact", "--channel", "emitter", "--omega-min", "-20",
         "--omega-max", "20", "--points", "101", "--n-max", "120", "--out", str(out)]
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "spec.lines.json").read_text())
    assert sidecar["channel"] == "emitter"
    assert sidecar["method"] == "exact"
    ws = sum(ln["L"] for ln in sidecar["lines"]) + 0.0
    assert ws == pytest.approx(1.0, abs=1e-5)
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 101


def test_spectrum_methods_share_grid(tmp_path):
    grids = {}
    for method in ("exact", "semiclassical"):
        out = tmp_path / f"{method}.csv"
        code = run(
            ["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334",
             "--pump-sigma", "7", "--method", method, "--channel", "emitter",
             "--points", "41", "--n-max", "120", "--out", str(out)]
        )
        assert code == 0
        rows = [l.split(",")[0] for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        grids[method] = rows
    assert grids["exact"] == grids["semiclassical"]


def test_transitions_file(tmp_path):
    out = tmp_path / "tr.csv"
    code = run(
        ["transitions", "--gamma-a", "0.1", "--gamma-sigma", "0.00334",
         "--sweep-min", "0.01", "--sweep-max", "7", "--sweep-points", "3",
         "--out", str(out)]
    )
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    ls = np.array([float(r[2]) for r in rows])
    assert (ls > 0).any() and (ls < 0).any()  # signed weights
    pumps = sorted({float(r[0]) for r in rows})
    assert len(pumps) == 3
    # linear-regime rows contain the dominant +-R0 doublet
    low = sorted((r for r in rows if float(r[0]) == pumps[0]), key=lambda r: -abs(float(r[2])))
    assert {round(abs(float(r[1])), 1) for r in low[:2]} == {1.0}


def test_mollow_coherent_files(tmp_path):
    out = tmp_path / "mc.csv"
    code = run(
        ["mollow-coherent", "--gamma-sigma", "1.0", "--omega-laser", "1.5",
         "--points", "101", "--map-points", "7", "--out", str(out)]
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "mc.lines.json").read_text())
    assert sidecar["elastic_weight"] == pytest.approx(1.0 / 19.0, rel=1e-9)
    vis_rows = [
        l.split(",")
        for l in (tmp_path / "mc_visibility.csv").read_text().splitlines()
        if not l.startswith("#")
    ][1:]
    for r in vis_rows:
        delta, phi, V = float(r[0]), float(r[1]), float(r[2])
        if delta == 0.0 or phi == 0.0:
            assert V < 1e-9
        else:
            assert V > 1e-6  # strictly inside the quadrant


def test_regimes_file(tmp_path):
    out = tmp_path / "rg.csv"
    code = run(
        ["regimes", "--gamma-a", "0.1", "--gamma-sigma", "0.00334",
         "--sweep-min", "1e-6", "--sweep-max", "1000", "--sweep-points", "25",
         "--out", str(out)]
    )
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    labels = [r[1] for r in rows]
    assert labels[0] == "Linear" and labels[-1] == "Thermal"
    order = ["Linear", "Quantum", "Lasing", "Quenching", "Thermal"]
    assert sorted(set(labels), key=order.index) == [l for l in order if l in labels]


def test_cothermal_only_mode_small_cavity_decay(tmp_path):
    # gamma_a = 0.01 g: exact route outruns the cutoff cap, cothermal column
    # still emitted and the sweep completes with the per-point error recorded
    out = tmp_path / "c.csv"
    code = run(
        ["sweep", "--gamma-a", "0.01", "--gamma-sigma", "0.00334",
         "--sweep-min", "50", "--sweep-max", "200", "--sweep-points", "2",
         "--auto-nmax-cap", "64", "--out", str(out)]
    )
    assert code == 4
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    header, body = rows[0], rows[1:]
    i_ct = header.index("n_a_cothermal")
    i_err = header.index("error")
    for r in body:
        assert float(r[i_ct]) > 0.0
        assert r[i_err] != ""


def test_json_format(tmp_path):
    out = tmp_path / "st.json"
    code = run(
        ["steady", "--gamma-a", "0.3", "--gamma-sigma", "0.1", "--pump-sigma", "0.5",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["gamma_a"] == "0.3"
    assert len(doc["rows"]) == 1


def test_steady_solver_failure_exit_code(tmp_path):
    out = tmp_path / "st.csv"
    code = run(
        ["steady", "--gamma-a", "0", "--gamma-sigma", "0.5", "--pump-sigma", "1.0",
         "--out", str(out)]
    )
    assert code == 3
    assert "NoSteadyStateError" in out.read_text()


def test_solver_memory_exit_code(tmp_path, monkeypatch, capsys):
    from jclaser import exact

    def oom(*a, **k):
        raise MemoryError()

    monkeypatch.setattr(exact, "zgbtrf", oom)
    code = run(
        ["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "1.0",
         "--method", "exact", "--out", str(tmp_path / "s.csv")]
    )
    assert code == 3
    assert "out of memory" in capsys.readouterr().err


def test_steady_zero_pump_row(tmp_path):
    out = tmp_path / "zero.csv"
    code = run(
        ["steady", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "0",
         "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    for col in ("n_a_exact", "n_sigma_exact", "g2_exact", "Q_exact",
                "n_a_bosonic", "n_a_truncated_jc", "n_a_thermal",
                "n_a_cothermal", "n_coh_cothermal"):
        assert abs(float(row[col])) < 1e-12


def test_spectrum_method_approx(tmp_path):
    out = tmp_path / "ap.csv"
    code = run(
        ["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "7",
         "--method", "approx", "--channel", "emitter", "--points", "101",
         "--omega-min", "-20", "--omega-max", "20", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "ap.lines.json").read_text())
    total = sum(ln["L"] for ln in doc["lines"]) + doc["elastic_weight"]
    assert total == pytest.approx(1.0, abs=1e-6)


def _table(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]


def test_steady_vacuum_starts_at_small_cutoff(tmp_path):
    # the thermal estimate reads 3.3e6 photons here; the true state is the vacuum
    out = tmp_path / "vac.csv"
    code = run(
        ["steady", "--g", "1e-12", "--gamma-a", "0.4", "--gamma-sigma", "0.9",
         "--pump-sigma", "0", "--out", str(out)]
    )
    assert code == 0
    (row,) = _table(out)
    assert float(row["n_a_exact"]) == 0.0
    assert row["error"] == ""


@pytest.mark.parametrize("pumps", [("1.6", "1.84"), ("1.96", "3.0")])
def test_good_cavity_sweep_matches_reference(tmp_path, pumps):
    # n_a ~ 60-200: a 40-digit ratio sweep is wrong here, the sector engine is not
    from moment_reference import moment_reference

    from jclaser.params import SystemParams

    out = tmp_path / "gc.csv"
    code = run(
        ["sweep", "--gamma-a", "0.01", "--gamma-sigma", "0.00334", "--sweep-scale", "linear",
         "--sweep-min", pumps[0], "--sweep-max", pumps[1], "--sweep-points", "2", "--out", str(out)]
    )
    assert code == 0
    for row, P in zip(_table(out), pumps):
        assert float(row["P_sigma"]) == float(P)
        ref = moment_reference(SystemParams(g=1.0, gamma_a=0.01, gamma_sigma=0.00334, P_sigma=float(P)))
        assert float(row["n_a_exact"]) == pytest.approx(ref.n_a, rel=1e-8)
        assert float(row["g2_exact"]) == pytest.approx(ref.g2, rel=1e-8)


def test_steady_good_cavity_needs_a_higher_cap(tmp_path):
    args = ["steady", "--gamma-a", "0.01", "--gamma-sigma", "0.00334", "--pump-sigma", "7"]
    out = tmp_path / "gc.csv"
    assert run(args + ["--auto-nmax-cap", "4096", "--out", str(out)]) == 0
    (row,) = _table(out)
    assert float(row["n_a_exact"]) == pytest.approx(343.7109077806, rel=1e-10)
    assert run(args + ["--out", str(tmp_path / "capped.csv")]) == 3
    (row,) = _table(tmp_path / "capped.csv")
    assert row["error"].startswith("TruncationNotConvergedError")


def test_transitions_honours_cutoff_cap(tmp_path, capsys):
    # the lasing points need cutoffs of ~300 photons, so a cap of 10 fails each
    args = ["transitions", "--sweep-min", "5", "--sweep-max", "7", "--sweep-points", "3",
            "--auto-nmax-cap", "10", "--out", str(tmp_path / "t.csv")]
    assert run(args) == 4
    captured = capsys.readouterr()
    assert "(0 lines, 3 failed points)" in captured.out
    assert captured.err.count("TruncationNotConvergedError") == 3


def test_commands_do_not_load_mpmath(tmp_path):
    # mpmath serves the moment route's tests only; a fresh interpreter shows
    # whether any command imports it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import jclaser

    rates = ["--gamma-a", "0.1", "--gamma-sigma", "0.00334"]
    runs = [
        ["steady", *rates, "--pump-sigma", "7", "--out", str(tmp_path / "st.csv")],
        ["sweep", *rates, "--sweep-points", "5", "--out", str(tmp_path / "sw.csv")],
        ["spectrum", *rates, "--pump-sigma", "7", "--method", "approx", "--points", "11",
         "--out", str(tmp_path / "ap.csv")],
    ]
    script = (
        "import sys\n"
        "from jclaser.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    src = str(Path(jclaser.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=25, deadline=None)
@given(gamma_a=st.floats(0.05, 1.0), log_P=st.floats(-4.0, 3.0))
def test_sweep_row_matches_moment_route(tmp_path_factory, gamma_a, log_P):
    from moment_reference import moment_reference

    from jclaser.params import SystemParams

    P = 10.0**log_P
    out = tmp_path_factory.mktemp("sweep") / "s.csv"
    code = run(
        ["sweep", "--gamma-a", repr(gamma_a), "--gamma-sigma", "0.00334", "--sweep-min", repr(P),
         "--sweep-max", repr(2.0 * P), "--sweep-points", "2", "--out", str(out)]
    )
    assert code == 0
    row = _table(out)[0]
    ref = moment_reference(SystemParams(g=1.0, gamma_a=gamma_a, gamma_sigma=0.00334, P_sigma=P))
    assert float(row["n_a_exact"]) == pytest.approx(ref.n_a, rel=1e-8)
    assert float(row["g2_exact"]) == pytest.approx(ref.g2, rel=1e-8)
