import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jclaser.cli import main
from jclaser.lineshape import SpectralLine, integrate_lines


def run(argv):
    return main(argv)


def parse_config_header(path) -> dict[str, str]:
    """The mapping of the ``# config:`` line, which the writers put first."""
    line = Path(path).read_text(encoding="utf-8").splitlines()[0]
    assert line.startswith("# config: ")
    return dict(item.split("=", 1) for item in line[len("# config: ") :].split("; "))


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


def test_config_file_values_take_the_argument_type(tmp_path):
    # --n-max defaults to None, so only the argument's own type reads "40"
    rates = ["--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "2"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 40\n")
    assert run(["steady", *rates, "--n-max", "40", "--out", str(tmp_path / "flag.csv")]) == 0
    assert run(["steady", *rates, "--config", str(cfg), "--out", str(tmp_path / "file.csv")]) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_config_error_exit_code(tmp_path):
    code = run(["sweep", "--sweep-min", "5", "--sweep-max", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert run(["sweep", "--sweep-param", "pump-sigma", "--out", str(tmp_path / "x.csv")]) == 2
    for workers in ("0", "-2"):
        assert run(["sweep", "--workers", workers, "--out", str(tmp_path / "x.csv")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line without equals\n")
    assert run(["steady", "--config", str(bad)]) == 2


def test_config_file_refuses_keys_that_are_no_flag(tmp_path, capsys):
    # a misspelt gamma_a would otherwise run at the default rate and exit 0
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("gama_a = 0.2\npump-sigma = 1.0\nsweep_points = 5\n")
    out = tmp_path / "st.csv"
    assert run(["steady", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "gama_a" in err and "sweep_points" in err and "pump_sigma" not in err
    assert not out.exists()


def test_config_file_refuses_another_command(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("command = sweep\ngamma_a = 0.2\n")
    assert run(["steady", "--config", str(cfg), "--out", str(tmp_path / "st.csv")]) == 2
    assert "sweep" in capsys.readouterr().err
    assert run(["sweep", "--config", str(cfg), "--sweep-points", "3", "--out", str(tmp_path / "sw.csv")]) == 0


def test_config_header_runs_as_config_file(tmp_path):
    # every key of a `# config:` header, command included, is a flag of its command
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(["sweep", "--gamma-a", "0.5", "--gamma-sigma", "0.00334", "--sweep-min", "0.01",
                "--sweep-max", "10", "--sweep-points", "4", "--out", str(out1)]) == 0
    cfg = tmp_path / "header.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in parse_config_header(out1).items()))
    assert run(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out2.read_bytes() == out1.read_bytes()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["steady", "--n-max", "-1"], "--n-max"),
        (["steady", "--n-max", "0"], "--n-max"),
        (["steady", "--auto-nmax-cap", "-1"], "--auto-nmax-cap"),
        (["steady", "--auto-nmax-cap", "0"], "--auto-nmax-cap"),
        (["steady", "--tol", "0"], "--tol"),
        (["steady", "--tol", "-1"], "--tol"),
        (["sweep", "--tol", "nan"], "--tol"),
        (["mollow-coherent", "--map-points", "0"], "--map-points"),
        (["spectrum", "--points", "0"], "--points"),
        (["spectrum", "--omega-min", "5", "--omega-max", "-5"], "--omega-min"),
        (["mollow-coherent", "--omega-min", "1", "--omega-max", "1"], "--omega-min"),
        (["mollow-coherent", "--gamma-sigma", "-1"], "--gamma-sigma"),
        (["mollow-coherent", "--gamma-sigma", "nan"], "--gamma-sigma"),
        (["sweep", "--sweep-points", "1"], "--sweep-points"),
        (["regimes", "--sweep-min", "0"], "--sweep-min"),
        (["transitions", "--sweep-min", "5", "--sweep-max", "1"], "--sweep-max"),
        # an infinite bound once wrote a grid of inf and nan and exited 0
        (["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "1", "--method", "approx",
          "--omega-max", "inf", "--points", "5"], "--omega-max"),
        (["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "1", "--omega-min=-inf",
          "--points", "5"], "--omega-min"),
        (["mollow-coherent", "--omega-max", "inf"], "--omega-max"),
        # the map's drives are not validated one by one: its bounds are checked before any file is written
        (["mollow-coherent", "--map-phi-max", "-1"], "--map-phi-max"),
        (["mollow-coherent", "--map-phi-max", "nan"], "--map-phi-max"),
        (["mollow-coherent", "--map-phi-max", "inf"], "--map-phi-max"),
        (["mollow-coherent", "--map-delta-max", "inf"], "--map-delta-max"),
        (["mollow-coherent", "--map-delta-max", "nan"], "--map-delta-max"),
        (["mollow-coherent", "--gamma-sigma", "10", "--map-delta-max", "1e308"], "--map-delta-max"),
        (["mollow-coherent", "--gamma-sigma", "10", "--map-phi-max", "1e308"], "--map-phi-max"),
        # a Python float ** raises where numpy returns inf: P_sigma^2 of the cavity
        # line width and the squared half width of a coherent line
        (["spectrum", "--method", "semiclassical", "--channel", "cavity", "--gamma-a", "0.1",
          "--gamma-sigma", "0.00334", "--pump-sigma", "1e200", "--points", "11"], "overflows the float range"),
        # Gamma_sigma (Gamma_sigma + gamma_phi) overflows in the pumped emitter's steady state
        (["spectrum", "--method", "semiclassical", "--channel", "emitter", "--gamma-a", "0.1",
          "--gamma-sigma", "0.00334", "--pump-sigma", "1e200", "--points", "11"], "has no finite steady state"),
        (["mollow-coherent", "--gamma-phi", "1e300", "--map-points", "2"], "overflows the float range"),
        # omega_L^2 overflows in the steady state, which would read inf / inf
        (["mollow-coherent", "--omega-laser", "1e200"], "omega_L = 1e+200"),
        # 2 omega_L^2 overflows where omega_L^2 does not: n_sigma would read 0, an empty channel
        (["mollow-coherent", "--omega-laser", "1e154"], "omega_L = 1e+154"),
    ],
)
def test_out_of_range_flags_are_refused(tmp_path, capsys, argv, named):
    # refused before any file is written, naming the flag or what overflows
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert list(tmp_path.iterdir()) == []  # no output, sidecar or visibility map


@pytest.mark.parametrize(
    "argv, cfg",
    [(["regimes", "--tol", "1e-7"], None), (["mollow-coherent", "--gamma-a", "0.1"], None), (["regimes"], "n_max = 40\n"),
     (["sweep", "--pump-sigma", "5"], None), (["transitions", "--pump-sigma", "5"], None),
     (["regimes", "--pump-sigma", "5"], None), (["sweep"], "pump_sigma = 5\n"),
     (["regimes", "--pump-a", "0.05"], None), (["regimes"], "pump_a = 0.05\n")],
    ids=["regimes-tol", "mollow-coherent-gamma-a", "regimes-config-n_max", "sweep-pump-sigma",
         "transitions-pump-sigma", "regimes-pump-sigma", "sweep-config-pump_sigma",
         "regimes-pump-a", "regimes-config-pump_a"],
)
def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys, argv, cfg):
    # regimes solves no steady state, so it has no photon cutoff, and its
    # labels read no P_a; mollow-coherent has no cavity; a pump axis replaces P_sigma
    if cfg:
        (tmp_path / "run.cfg").write_text(cfg)
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:" if cfg else "unknown arguments:")
    assert not out.exists()


def test_readme_command_lines_parse():
    # every example of the README "Command line" block names only real flags
    import shlex

    from jclaser.cli import build_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("jclaser ")]
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line)[1:]
        args, unknown = build_parser(argv[0]).parse_known_args(argv)
        assert unknown == [], line


def test_readme_flag_table_is_the_parser():
    # each command takes exactly the flags of the README rows that name it,
    # with the choices the table lists
    import re

    from jclaser.cli import build_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.split("| flags | commands |\n|---|---|\n", 1)[1].splitlines()
            if line.startswith("|")]
    (commands,) = (a for a in build_parser()._actions if a.dest == "command")
    table = {name: {} for name in commands.choices}
    assert len(table) == 6
    for row in rows:
        flags, names = (cell.strip() for cell in row.strip("|").split("|"))
        taken = re.findall(r"`([\w-]+)`", names)
        if names == "all":
            taken = list(table)
        elif names.startswith("all but"):
            taken = [name for name in table if name not in taken]
        cells = re.findall(r"(--[\w-]+)(?: \{([\w,]+)\})?", flags.strip("`"))
        for name in taken:
            for flag, choices in cells:
                table[name][flag] = choices.split(",") if choices else None
    assert len(rows) >= 4
    for name in table:
        # the parser of a run carries the flags of its command alone
        (own,) = (a for a in build_parser(name)._actions if a.dest == "command")
        sub = own.choices[name]
        assert all(len(other._actions) == 1 for key, other in own.choices.items() if key != name)
        parsed = {flag: list(a.choices) if a.choices else None
                  for a in sub._actions for flag in a.option_strings if flag not in ("-h", "--help")}
        assert parsed == table[name], name


def test_help_lists_every_command(capsys):
    # a run's parser carries the flags of its command alone; help still
    # lists all six commands, and a command's help its flags
    helps = []
    for argv in (["--help"], ["spectrum", "--help"]):
        with pytest.raises(SystemExit) as stop:
            run(argv)
        assert stop.value.code == 0
        helps.append(capsys.readouterr().out)
    for name in ("steady", "sweep", "spectrum", "transitions", "mollow-coherent", "regimes"):
        assert name in helps[0]
    assert "--method {exact,approx,semiclassical}" in helps[1] and "--sweep-min" not in helps[1]


@pytest.mark.parametrize("argv", [["sweep", "--sweep-point", "20"], ["sweep", "--n", "40"]])
def test_abbreviated_flags_are_refused(tmp_path, capsys, argv):
    # a prefix of a flag is an unknown flag, so a README example cannot drift to one
    from jclaser.cli import build_parser

    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("unknown arguments:")
    assert not out.exists()
    assert build_parser(argv[0]).parse_known_args(argv)[1] == argv[1:]


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
             "--points", "41", *(["--n-max", "120"] if method == "exact" else []), "--out", str(out)]
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


@pytest.mark.parametrize("channel", ["cavity", "emitter"])
def test_readme_transitions_map_fits_every_pump(tmp_path, capsys, channel):
    # the README map up to P 40: every pump's line table fits, so it exits 0
    out = tmp_path / "map.csv"
    code = run(["transitions", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--sweep-min", "0.01",
                "--sweep-max", "40", "--sweep-points", "60", "--channel", channel, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.endswith(" lines, 0 failed points)\n")
    assert len({line.split(",")[0] for line in out.read_text().splitlines()[3:]}) == 60


def test_transitions_reports_a_refused_pump(tmp_path, capsys):
    # the lossless cavity has no steady state at P 0.9 > gamma_sigma: that
    # pump is named on stderr with its error, the P 0.1 table is written,
    # and the partial map exits 4
    out = tmp_path / "map.csv"
    code = run(["transitions", "--gamma-a", "0", "--gamma-sigma", "0.5", "--n-max", "30", "--sweep-min", "0.1",
                "--sweep-max", "0.9", "--sweep-points", "2", "--sweep-scale", "linear", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == ("pump 0.9: NoSteadyStateError: parameters admit no steady state "
                            "(net gain exceeds loss)\n")
    assert captured.out.endswith("(32 lines, 1 failed points)\n")
    assert {line.split(",")[0] for line in out.read_text().splitlines()[3:]} == {"0.1"}


def test_mollow_coherent_files(tmp_path):
    out = tmp_path / "mc.csv"
    code = run(
        ["mollow-coherent", "--gamma-sigma", "1.0", "--omega-laser", "1.5",
         "--points", "101", "--map-points", "7", "--out", str(out)]
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "mc.lines.json").read_text())
    assert sidecar["elastic_weight"] == pytest.approx(1.0 / 19.0, rel=1e-9)
    assert (sidecar["channel"], sidecar["method"]) == ("emitter", "coherent")
    assert sidecar["validity"]["n_c"] == pytest.approx(9.0 / 19.0, rel=1e-12)  # n_sigma
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


@pytest.mark.parametrize(
    "argv, stem",
    [
        (["steady", "--pump-sigma", "1"], "steady"),
        (["sweep", "--sweep-points", "3"], "sweep"),
        (["spectrum", "--pump-sigma", "1", "--points", "11"], "spectrum"),
        (["transitions", "--sweep-min", "0.5", "--sweep-max", "1", "--sweep-points", "2", "--n-max", "10"],
         "transitions"),
        (["mollow-coherent", "--points", "11", "--map-points", "2"], "mollow_coherent"),
        (["regimes", "--sweep-points", "3"], "regimes"),
    ],
)
def test_json_runs_write_json_names(tmp_path, monkeypatch, argv, stem):
    # without --out the format names the suffix: a JSON document under a .csv
    # name misleads every reader that goes by the suffix
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--gamma-sigma", "0.1", "--format", "json"]) == 0
    with open(f"{stem}.json", encoding="utf-8") as f:
        assert json.load(f)["rows"]
    assert not list(tmp_path.glob("*.csv"))
    if stem == "mollow_coherent":
        assert json.loads((tmp_path / "mollow_coherent_visibility.json").read_text())["rows"]


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
    for col in ("n_a_exact", "n_sigma_exact",
                "n_a_bosonic", "n_a_truncated_jc", "n_a_thermal",
                "n_a_cothermal", "n_coh_cothermal"):
        assert abs(float(row[col])) < 1e-12
    for col in ("g2_exact", "Q_exact", "g2_cothermal"):  # 0/0 in the vacuum
        assert np.isnan(float(row[col])), col


_LINE_TABLES = [
    *[("exact", channel, P, []) for P in ("3", "5", "7") for channel in ("cavity", "emitter")],
    *[("approx", channel, "7", []) for channel in ("cavity", "emitter")],
    ("semiclassical", "cavity", "7", []),
    # the semiclassical emitter is one table at every detuning
    ("semiclassical", "emitter", "7", []),
    ("semiclassical", "emitter", "7", ["--delta", "0.5"]),
    # the coherently driven emitter, through the same writer
    ("coherent", "emitter", None, ["--gamma-sigma", "1.0", "--omega-laser", "1.5", "--map-points", "2"]),
]
_SIDECAR_KEYS = {"config", "channel", "method", "elastic_weight", "validity", "lines"}


@pytest.mark.parametrize(
    "method, channel, pump, extra", _LINE_TABLES,
    ids=[f"{m}-{c}-P{P}{'-detuned' if x else ''}" if P else "mollow-coherent" for m, c, P, x in _LINE_TABLES],
)
def test_spectrum_sidecar_closes_to_one(tmp_path, method, channel, pump, extra):
    # one closure rule for every sidecar with a line table: the lines' L and
    # the elastic (delta) weight sum to one, so no weight is counted twice;
    # and one writer, so every sidecar has the same keys
    out = tmp_path / "ap.csv"
    if method == "coherent":
        argv = ["mollow-coherent", *extra]
    else:
        argv = ["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", pump,
                "--method", method, "--channel", channel, *extra]
    code = run([*argv, "--points", "101", "--omega-min", "-20", "--omega-max", "20", "--out", str(out)])
    assert code == 0
    doc = json.loads((tmp_path / "ap.lines.json").read_text())
    assert set(doc) == _SIDECAR_KEYS
    assert (doc["method"], doc["channel"]) == (method, channel)
    assert doc["lines"]
    total = sum(ln["L"] for ln in doc["lines"]) + doc["elastic_weight"]
    assert total == pytest.approx(1.0, abs=1e-6)
    # one constructor reads every line table's grid (JSON writes a value
    # that is not finite as null)
    for key in ("grid_integral", "window_weight"):
        assert isinstance(doc["validity"][key], float) and math.isfinite(doc["validity"][key]), key


def test_spectrum_semiclassical_refuses_cavity_pump(tmp_path, capsys):
    # neither the mean field n_a nor the cavity line width carries P_a, at
    # any detuning and on either channel
    rates = ["--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "7"]
    for argv in (["--delta", "0.5", "--gamma-sigma", "0.2", "--pump-sigma", "3"],
                 ["--channel", "emitter", *rates], ["--channel", "cavity", *rates]):
        code = run(["spectrum", "--method", "semiclassical", "--pump-a", "0.01", *argv, "--points", "11",
                    "--out", str(tmp_path / "sc.csv")])
        assert code == 2, argv
        assert "P_a = 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_spectrum_semiclassical_refuses_zero_emitter_broadening(tmp_path):
    # the default rates give Gamma_sigma = gamma_sigma + P_sigma = 0
    code = run(
        ["spectrum", "--method", "semiclassical", "--delta", "0.5", "--points", "11",
         "--out", str(tmp_path / "sc.csv")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "channel",
    [["cavity"], ["emitter"], ["emitter", "--delta", "0.5"]],
    ids=["cavity", "emitter", "detuned-emitter"],
)
def test_spectrum_semiclassical_refuses_a_cavity_line_without_pump(tmp_path, capsys, channel):
    # the cavity line width 2 g^2 gamma_a / P_sigma^2 has no value at P_sigma = 0,
    # and the unpumped emitter under no mean field is empty
    out = tmp_path / "sc.csv"
    code = run(
        ["spectrum", "--method", "semiclassical", "--channel", *channel, "--gamma-sigma", "0.00334",
         "--points", "11", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "P_sigma" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra", [["--pump-sigma", "1e-9"], ["--pump-sigma", "0.01", "--delta", "0.5"]],
                         ids=["resonant", "detuned"])
def test_spectrum_semiclassical_emitter_is_nonnegative_at_a_small_pump(tmp_path, monkeypatch, capsys, extra):
    # outside the lasing window, at a small pump, the pumped emitter under
    # the mean field is still a spectrum that is never negative, so the
    # refusal does not fire: below threshold (P 1e-9) one line of FWHM
    # Gamma_sigma + gamma_phi at -delta with no delta weight, and just above
    # it (P 0.01 at delta 0.5) the weak triplet
    monkeypatch.chdir(tmp_path)
    code = run(["spectrum", "--method", "semiclassical", "--channel", "emitter", "--gamma-a", "0.1",
                "--gamma-sigma", "0.00334", "--points", "11", *extra])
    assert code == 0 and capsys.readouterr().err == ""
    assert all(float(row["S"]) >= 0.0 for row in _table(tmp_path / "spectrum.csv"))
    doc = json.loads((tmp_path / "spectrum.lines.json").read_text())
    if "--delta" in extra:
        assert doc["validity"]["n_a"] > 0.0 and len(doc["lines"]) == 3 and doc["elastic_weight"] > 0.0
    else:
        assert doc["validity"]["n_a"] == 0.0 and doc["elastic_weight"] == 0.0
        assert [(ln["omega"], ln["L"], ln["K"]) for ln in doc["lines"]] == [(0.0, 1.0, 0.0)]
        assert doc["lines"][0]["gamma"] == pytest.approx(0.00334 + 1e-9, rel=1e-12)


@pytest.mark.parametrize("channel", ["cavity", "emitter"])
def test_spectrum_semiclassical_refuses_a_lossless_cavity(tmp_path, monkeypatch, capsys, channel):
    # at gamma_a = 0 the cavity line has no width, so S(0) would be nan, and
    # kappa_sigma is infinite, so the mean field n_a has no value
    monkeypatch.chdir(tmp_path)
    code = run(["spectrum", "--method", "semiclassical", "--channel", channel, "--gamma-a", "0",
                "--gamma-sigma", "0.00334", "--pump-sigma", "3", "--points", "11"])
    assert code == 2
    assert "needs gamma_a > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_semiclassical_refuses_a_non_finite_emitter_spectrum(tmp_path, monkeypatch, capsys):
    # at P 1e200 the pumped emitter's steady state is inf / inf, so nan
    monkeypatch.chdir(tmp_path)
    code = run(["spectrum", "--method", "semiclassical", "--gamma-a", "0.1",
                "--gamma-sigma", "0.00334", "--pump-sigma", "1e200", "--points", "11"])
    assert code == 2
    assert "P_sigma = 1e+200) has no finite steady state" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _table(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]


def test_steady_vacuum_starts_at_small_cutoff(tmp_path):
    # closed forms diverge here (semiclassical n_sigma 4.5e22); the true state is the vacuum
    out = tmp_path / "vac.csv"
    code = run(
        ["steady", "--g", "1e-12", "--gamma-a", "0.4", "--gamma-sigma", "0.9",
         "--pump-sigma", "0", "--out", str(out)]
    )
    assert code == 0
    (row,) = _table(out)
    assert float(row["n_a_exact"]) == 0.0
    assert row["error"] == ""


def test_steady_thermal_root_at_a_huge_dephasing(tmp_path):
    # the square of B1 ~ 2.5e298 overflowed: an overflow warning leaked and
    # the thermal column read 0, where its root is C1 / B1 ~ 4.0e-299
    out = tmp_path / "phi.csv"
    code = run(["steady", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "7",
                "--gamma-phi", "1e300", "--out", str(out)])
    assert code == 0
    (row,) = _table(out)
    assert float(row["n_a_thermal"]) == pytest.approx(3.998092338798345e-299, rel=1e-12)


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
    # n_a ~ 344 is accepted at a cutoff of 512, under the default cap of 2048
    args = ["steady", "--gamma-a", "0.01", "--gamma-sigma", "0.00334", "--pump-sigma", "7"]
    out = tmp_path / "gc.csv"
    assert run(args + ["--out", str(out)]) == 0
    (row,) = _table(out)
    assert float(row["n_a_exact"]) == pytest.approx(343.7109077806, rel=1e-10)
    assert run(args + ["--auto-nmax-cap", "256", "--out", str(tmp_path / "capped.csv")]) == 3
    (row,) = _table(tmp_path / "capped.csv")
    assert row["error"].startswith("TruncationNotConvergedError")


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--method", "exact", "--channel", "emitter"],
     # the rung slices need an emitter width
     ["spectrum", "--method", "approx", "--channel", "cavity", "--gamma-sigma", "0.00334"],
     ["spectrum", "--method", "approx", "--channel", "emitter", "--gamma-sigma", "0.00334"],
     ["mollow-coherent", "--omega-laser", "0"]],
    ids=["exact-emitter", "approx-cavity", "approx-emitter", "mollow-coherent-undriven"],
)
def test_spectrum_refuses_an_empty_channel(tmp_path, capsys, argv):
    # at the default P_sigma = 0 neither channel holds population to
    # normalise by, and an undriven emitter holds none either
    assert run([*argv, "--points", "11", "--out", str(tmp_path / "s.csv")]) == 3
    assert capsys.readouterr().err.startswith("solver error: empty channel: its population n_c = 0 ")
    assert list(tmp_path.iterdir()) == []


def test_only_lineshape_raises_an_empty_channel():
    # one rule for the three spectral engines: lineshape.channel_population
    import ast

    import jclaser

    calls = [path.name for path in Path(jclaser.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "EmptyChannelError"]
    assert calls == ["lineshape.py"]


def test_transitions_lists_an_empty_channel_as_failed(tmp_path, capsys):
    # the cavity is empty at P_sigma = 0; the other pumps keep their lines
    args = ["transitions", "--sweep-scale", "linear", "--sweep-min", "0", "--sweep-max", "1",
            "--sweep-points", "3", "--gamma-sigma", "0.00334", "--out", str(tmp_path / "t.csv")]
    assert run(args) == 4
    captured = capsys.readouterr()
    assert captured.out.endswith(" lines, 1 failed points)\n")
    assert captured.err == "pump 0.0: EmptyChannelError: empty channel: its population n_c = 0 leaves no spectrum to normalise\n"


def test_transitions_honours_cutoff_cap(tmp_path, capsys):
    # the lasing points need cutoffs of ~300 photons, so a cap of 10 fails each
    args = ["transitions", "--sweep-min", "5", "--sweep-max", "7", "--sweep-points", "3",
            "--auto-nmax-cap", "10", "--out", str(tmp_path / "t.csv")]
    assert run(args) == 4
    captured = capsys.readouterr()
    assert "(0 lines, 3 failed points)" in captured.out
    assert captured.err.count("TruncationNotConvergedError") == 3


@pytest.fixture(scope="module")
def fresh_command_modules(tmp_path_factory):
    """Names in ``sys.modules`` of a fresh interpreter after ``import
    jclaser.cli`` and after each command at a tiny size, by step."""
    import os
    import subprocess
    import sys

    import jclaser

    tmp_path = tmp_path_factory.mktemp("fresh")
    rates = ["--gamma-a", "0.1", "--gamma-sigma", "0.00334"]
    runs = [
        ["steady", *rates, "--pump-sigma", "7", "--out", str(tmp_path / "st.csv")],
        ["sweep", *rates, "--sweep-points", "5", "--out", str(tmp_path / "sw.csv")],
        *(["spectrum", *rates, "--pump-sigma", "7", "--method", method, "--points", "11",
           "--out", str(tmp_path / f"{method}.csv")] for method in ("exact", "approx", "semiclassical")),
        ["transitions", *rates, "--sweep-min", "0.01", "--sweep-max", "7", "--sweep-points", "3",
         "--out", str(tmp_path / "tr.csv")],
        ["mollow-coherent", "--points", "11", "--map-points", "5", "--out", str(tmp_path / "mc.csv")],
        ["regimes", *rates, "--sweep-points", "5", "--out", str(tmp_path / "rg.csv")],
    ]
    script = (
        "import json, sys\n"
        "from jclaser.cli import main\n"
        "seen = {'import jclaser.cli': sorted(sys.modules)}\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    seen[' '.join(argv)] = sorted(sys.modules)\n"
        "print(json.dumps(seen))\n"
    )
    src = str(Path(jclaser.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_do_not_load_mpmath(fresh_command_modules):
    # mpmath serves the moment route's tests only
    assert len(fresh_command_modules) == 9  # the import and eight commands
    for step, modules in fresh_command_modules.items():
        assert "mpmath" not in modules, step


def test_commands_do_not_load_scipy_linalg(fresh_command_modules):
    # exact loads scipy's LAPACK extension alone: the scipy.linalg package init
    # would cost every command ~0.3 s (only the test oracle
    # coherent_reference.spectrum_by_propagation imports its expm)
    for step, modules in fresh_command_modules.items():
        assert "scipy.linalg._flapack" in modules, step
        assert "scipy.linalg" not in modules, step


def test_cli_import_does_not_load_concurrent_futures(fresh_command_modules):
    # no command starts a thread or process pool, on import or when it runs
    for step, modules in fresh_command_modules.items():
        assert "concurrent.futures" not in modules, step


def test_runtime_package_carries_no_moment_oracle():
    # the moment route is the tests' oracle (tests/moment_reference.py)
    import ast
    import importlib.util

    import jclaser

    assert importlib.util.find_spec("jclaser.moments") is None
    for path in Path(jclaser.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "mpmath" for n in names), path.name
    assert not hasattr(jclaser, "InternalConsistencyError")
    assert not hasattr(jclaser, "UnphysicalResultError")


# Read by no command, each for its reason: SectorBlock.size names a block in
# the refusal messages alone, and bench/tracing.py reads SectorBlock.shape.
_UNCALLED = {"exact.SectorBlock.size", "exact.SectorBlock.shape"}


def _package_functions() -> dict[tuple[str, int], str]:
    """Every function, method and property defined in the package, nested ones
    too, keyed as its code object is: by file and first line, which is the
    first decorator's line or else the def line."""
    import ast

    import jclaser

    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, ast.FunctionDef):
                out[path, min([child.lineno, *(d.lineno for d in child.decorator_list)])] = name
            walk(child, path, name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else prefix)

    for path in Path(jclaser.__file__).resolve().parent.glob("*.py"):
        walk(ast.parse(path.read_text()), str(path), path.stem)
    return out


def test_runtime_package_keeps_only_what_is_called(tmp_path, monkeypatch):
    # a fresh import of the package and a minimal run of every command enter
    # each function, method and property of the package but those of
    # _UNCALLED; the modules imported before are restored after the run
    import importlib
    import sys

    for name in [m for m in sys.modules if m.split(".")[0] == "jclaser"]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.chdir(tmp_path)
    Path("steady.cfg").write_text("gamma_a = 0.1\ngamma_sigma = 0.00334\npump_sigma = 7\n")
    rates = ["--gamma-a", "0.1", "--gamma-sigma", "0.00334"]
    spectrum = ["spectrum", *rates, "--pump-sigma", "7", "--points", "201"]
    commands = [
        ["steady", "--config", "steady.cfg"],
        ["sweep", *rates, "--sweep-points", "8", "--format", "json"],
        ["transitions", *rates, "--sweep-min", "1", "--sweep-max", "10", "--sweep-points", "3"],
        ["mollow-coherent", "--map-points", "4"],
        ["regimes", *rates],
        *([*spectrum, "--method", m, "--channel", c, "--out", f"{m}_{c}.csv"]
          for m in ("exact", "approx", "semiclassical") for c in ("cavity", "emitter")),
        [*spectrum, "--method", "semiclassical", "--delta", "0.5", "--out", "detuned.csv"],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        fresh = importlib.import_module("jclaser.cli").main
        codes = [fresh(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(commands)
    entered = {(str(Path(f).resolve()), line) for f, line in entered}
    functions = _package_functions()
    assert set(_UNCALLED) <= set(functions.values())
    assert sorted(name for key, name in functions.items() if key not in entered and name not in _UNCALLED) == []


# A field that no runtime code reads, with its reason: herm_defect is the
# diagnostic of the sector solve that the tests check and no command writes yet.
_UNREAD = {"exact.SteadyState.herm_defect"}


def test_record_fields_are_read():
    # each annotated field of a dataclass in the package but those of _UNREAD
    # is read as an attribute in the package or the benchmark; a field that
    # only the tests read is dead weight at run time
    import ast

    import jclaser

    root, repo = Path(jclaser.__file__).parent, Path(__file__).parents[1]
    fields, read = [], set()
    for path in [*root.glob("*.py"), *repo.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            dataclass = isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            )
            if dataclass and path.parent == root:
                fields += [(f"{path.stem}.{node.name}", s.target.id) for s in node.body
                           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    assert fields
    assert _UNREAD <= {f"{cls}.{name}" for cls, name in fields}
    assert [f"{cls}.{name}" for cls, name in fields if name not in read and f"{cls}.{name}" not in _UNREAD] == []


def test_sweep_workers_match_serial(tmp_path, monkeypatch):
    # --workers is accepted and ignored: three workers write the serial file
    # and import no pool (a None entry in sys.modules fails any import of it)
    import sys

    for name in ("multiprocessing", "concurrent.futures"):
        monkeypatch.setitem(sys.modules, name, None)
    argv = ["sweep", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--sweep-points", "13"]
    for w in ("1", "3"):
        assert run([*argv, "--workers", w, "--out", str(tmp_path / f"w{w}.csv")]) == 0
    assert (tmp_path / "w3.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()


def test_sweep_rows_are_steady_rows(tmp_path):
    # the sweep solves its cothermal roots for the whole grid at once; each
    # row still reads as the steady command's row at that pump
    rates = ["--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--delta", "0.7", "--gamma-phi", "0.3"]
    sweep = tmp_path / "sweep.csv"
    assert run(["sweep", *rates, "--sweep-min", "1e-3", "--sweep-max", "300", "--sweep-points", "7",
                "--out", str(sweep)]) == 0
    rows = sweep.read_text().splitlines()[3:]
    assert len(rows) == 7
    for k, line in enumerate(rows):
        out = tmp_path / f"steady{k}.csv"
        assert run(["steady", *rates, "--pump-sigma", line.split(",")[0], "--out", str(out)]) == 0
        assert out.read_text().splitlines()[3] == line


def test_json_output_is_strict(tmp_path):
    # the default sweep blanks some closed-form cells; the spectrum table and
    # its sidecar are held to the same parse
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    out = tmp_path / "sweep.json"
    assert run(["sweep", "--gamma-sigma", "0.00334", "--sweep-points", "5", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=refuse)
    assert any(v is None for row in doc["rows"] for v in row)
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "0.05",
                "--points", "11", "--format", "json", "--out", str(out)]) == 0
    json.loads(out.read_text(), parse_constant=refuse)
    json.loads(out.with_suffix(".lines.json").read_text(), parse_constant=refuse)


def test_bool_array_column_writes_the_per_cell_text(tmp_path):
    # a bool array column, like the visibility map's "defined", is formatted
    # as a whole into the text format_value gives each of its cells
    from jclaser.output import write_csv

    flags = np.array([True, False, False, True])
    values = np.array([0.5, np.nan, 0.0, 1e-300])
    write_csv(tmp_path / "whole.csv", ["v", "defined"], [values, flags], {"k": 1})
    write_csv(tmp_path / "cells.csv", ["v", "defined"], [list(values), list(flags)], {"k": 1})
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    assert [ln.split(",")[1] for ln in (tmp_path / "whole.csv").read_text().splitlines()[3:]] == [
        "True", "False", "False", "True"]


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


def test_steady_default_rates(tmp_path):
    # gamma_sigma = P_sigma = 0: the closed forms that need Gamma_sigma > 0
    # are blank, the regime boundaries and the exact vacuum are not
    out = tmp_path / "default.csv"
    assert run(["steady", "--out", str(out)]) == 0
    (row,) = _table(out)
    assert float(row["n_a_exact"]) == 0.0
    assert row["regime"] == "Linear" and row["error"] == ""
    assert np.isnan(float(row["n_a_semiclassical"])) and np.isnan(float(row["n_a_thermal"]))
    # g2 = <a'a'aa>/n_a^2 is 0/0 in the vacuum
    for col in ("g2_exact", "Q_exact", "g2_cothermal"):
        assert np.isnan(float(row[col])), col


def test_steady_vacuum_blanks_unphysical_approximations(tmp_path):
    # the rate balance allows n_a <= (P_a + P_sigma) / (gamma_a - P_a) = 0;
    # the lasing-branch semiclassical n_sigma would read 4.5e22 here
    out = tmp_path / "vac.csv"
    code = run(["steady", "--g", "1e-12", "--gamma-a", "0.4", "--gamma-sigma", "0.9",
                "--pump-sigma", "0", "--out", str(out)])
    assert code == 0
    (row,) = _table(out)
    for col in ("n_a_exact", "n_a_bosonic", "n_sigma_bosonic", "n_a_truncated_jc",
                "n_sigma_truncated_jc", "n_a_semiclassical", "n_sigma_semiclassical",
                "n_a_thermal", "n_a_cothermal", "n_coh_cothermal"):
        assert float(row[col]) == 0.0, col


def test_steady_closed_forms_read_nan_under_a_cavity_pump(tmp_path):
    # a cavity pump moves the exact n_a from 2.50 to 5.95; no closed form
    # carries it, so every closed-form cell reads nan, and the regime label,
    # which reads no P_a, stays
    rows = {}
    for pump_a in ("0", "0.05"):
        out = tmp_path / f"steady_{pump_a}.csv"
        assert run(["steady", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "0.5",
                    "--pump-a", pump_a, "--out", str(out)]) == 0
        (rows[pump_a],) = _table(out)
    closed = [c for c in rows["0"] if c.endswith(("bosonic", "truncated_jc", "semiclassical", "thermal"))]
    assert len(closed) == 10
    for col in ("n_a_truncated_jc", "n_a_semiclassical", "n_a_thermal", "n_a_cothermal"):
        assert math.isfinite(float(rows["0"][col])), col
    for col in closed:
        assert math.isnan(float(rows["0.05"][col])), col
    assert float(rows["0.05"]["n_a_exact"]) == pytest.approx(5.9529, rel=1e-4)
    assert rows["0.05"]["regime"] == rows["0"]["regime"] and rows["0.05"]["error"] == ""


def test_spectrum_sidecar_reports_the_grid_integral(tmp_path):
    # the default grid steps over the cavity lines at P 6.1 (see test_exact)
    out = tmp_path / "cav.csv"
    code = run(["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "6.1",
                "--channel", "cavity", "--out", str(out)])
    assert code == 0
    validity = json.loads((tmp_path / "cav.lines.json").read_text())["validity"]
    assert validity["grid_integral"] == pytest.approx(1.896, abs=1e-3)
    # and the record of its line fit
    assert validity["closure_miss"] <= 1e-6 and validity["fit_miss"] <= 1e-9
    assert validity["poles"] == len(json.loads((tmp_path / "cav.lines.json").read_text())["lines"])


def test_spectrum_sidecar_reports_the_window_weight(tmp_path):
    # the default window [-20, 20] holds 0.815 of the P 6.1 emitter's broad
    # lines, the closed-form integral of its line table; that is reported,
    # not refused, and the cavity's narrow lines sit inside the window
    for channel, weight in (("emitter", 0.8146), ("cavity", 1.0)):
        out = tmp_path / f"{channel}.csv"
        code = run(["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "6.1",
                    "--channel", channel, "--out", str(out)])
        assert code == 0
        side = json.loads((tmp_path / f"{channel}.lines.json").read_text())
        assert side["validity"]["window_weight"] == pytest.approx(weight, abs=1e-4)
        lines = [SpectralLine(ln["omega"], ln["gamma"], ln["L"], ln["K"]) for ln in side["lines"]]
        assert side["validity"]["window_weight"] == pytest.approx(integrate_lines(lines, -20.0, 20.0), abs=1e-12)


@pytest.mark.parametrize(
    "flags, cfg, named",
    [(["--n-max", "40"], None, "--n-max"), (["--auto-nmax-cap", "1"], None, "--auto-nmax-cap"),
     (["--tol", "5"], None, "--tol"), (["--n-max", "3", "--tol", "5", "--auto-nmax-cap", "1"], None, "--n-max"),
     ([], "n_max = 40\n", "--n-max")],
    ids=["n-max", "auto-nmax-cap", "tol", "all-three", "config-n_max"],
)
def test_spectrum_semiclassical_refuses_cutoff_flags(tmp_path, capsys, flags, cfg, named):
    # the mean field solves no steady state, so a cutoff it would ignore is
    # refused; the defaults, which every `# config:` header spells out, are not
    argv = ["spectrum", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--pump-sigma", "7",
            "--method", "semiclassical", "--points", "11"]
    assert run([*argv, "--auto-nmax-cap", "2048", "--tol", "1e-7", "--out", str(tmp_path / "ok.csv")]) == 0
    if cfg:
        (tmp_path / "run.cfg").write_text(cfg)
        flags = ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out.csv"
    assert run([*argv, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err and "semiclassical" in err
    assert not out.exists()


def test_sweep_writes_no_infinite_closed_form_at_huge_pumps(tmp_path):
    # at P 1e308 the cothermal root overflows, and the rate-balance bound
    # P / gamma_a, inf there too, once let its inf cells through
    out = tmp_path / "huge.csv"
    assert run(["sweep", "--gamma-a", "0.1", "--gamma-sigma", "0.00334", "--sweep-min", "1e300",
                "--sweep-max", "1e308", "--sweep-points", "3", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    header, body = rows[0], rows[1:]
    assert not any(math.isinf(float(c)) for r in body for k, c in zip(header, r) if k not in ("regime", "error"))
    last = dict(zip(header, body[-1]))
    assert all(math.isnan(float(last[k])) for k in ("n_a_cothermal", "n_coh_cothermal", "g2_cothermal"))


_RATE = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
_PUMP = st.one_of(st.just(0.0), st.floats(-300.0, 308.0).map(lambda e: 10.0**e))
# a lossless cavity (or a kappa_sigma past the float range) puts the lasing
# and quenching edges at infinite pump: the one inf that regimes writes
_INFINITE_EDGES = {"b_lasing_quenching", "b_quenching_thermal"}


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from(["steady", "regimes"]), g=_RATE, gamma_a=_RATE, gamma_sigma=_RATE,
       gamma_phi=_RATE, delta=_RATE, pump=_PUMP, top=_PUMP)
# the cothermal rescan overflowed outside its errstate
@example(command="steady", g=1.0, gamma_a=0.1, gamma_sigma=0.00334, gamma_phi=0.0, delta=0.0, pump=1e308, top=0.0)
# kappa_sigma underflows to 0 and the pump scales divided by it
@example(command="regimes", g=1e-170, gamma_a=0.1, gamma_sigma=0.00334, gamma_phi=0.0, delta=0.0, pump=1e-4, top=1e3)
@example(command="steady", g=1e-200, gamma_a=0.1, gamma_sigma=0.00334, gamma_phi=0.0, delta=0.0, pump=7.0, top=0.0)
# a solution whose trace is 0 ...
@example(command="steady", g=6.4120516865424166e268, gamma_a=2.1407941896822957e-237, gamma_sigma=0.0,
         gamma_phi=0.0, delta=0.0, pump=3.367139567846553e67, top=0.0)
# ... or subnormal, so that dividing by it overflows
@example(command="steady", g=7.50618008981001e287, gamma_a=19.801333636412377, gamma_sigma=6.522190083316558e-107,
         gamma_phi=4.984539475022015e114, delta=0.0, pump=1.94509855431681e43, top=0.0)
# the rung below a placed cutoff was pinned at a second peak above it
@example(command="steady", g=9.773092401728671e122, gamma_a=2.2599433988711763e-94, gamma_sigma=0.0,
         gamma_phi=1.0726436416333942e-158, delta=4.021763214432287e-182, pump=1.2306460860391006e-91, top=0.0)
# a finite cothermal n_a whose n_coh overflows
@example(command="steady", g=3.077573262997791e80, gamma_a=7.107358217726352e-104, gamma_sigma=2.758328174135837e-87,
         gamma_phi=0.0, delta=0.0, pump=1.3730280319097248e205, top=0.0)
def test_commands_hold_their_exits_at_extreme_rates(tmp_path_factory, command, g, gamma_a, gamma_sigma,
                                                    gamma_phi, delta, pump, top):
    # every run exits 0, 2, 3 or 4 with no warning (the suite makes each an
    # error) and writes no inf cell but the infinite edges of regimes
    rates = ["--g", repr(g), "--gamma-a", repr(gamma_a), "--gamma-sigma", repr(gamma_sigma),
             "--gamma-phi", repr(gamma_phi), "--delta", repr(delta)]
    if command == "steady":
        argv = ["steady", *rates, "--pump-sigma", repr(pump)]
    else:
        lo, hi = sorted((pump, top))
        argv = ["regimes", *rates, "--sweep-min", repr(lo), "--sweep-max", repr(hi), "--sweep-points", "3"]
    out = tmp_path_factory.getbasetemp() / "extreme.csv"
    out.unlink(missing_ok=True)
    assert run([*argv, "--out", str(out)]) in (0, 2, 3, 4)
    if out.exists():
        header, *body = (l.split(",") for l in out.read_text().splitlines()[2:])
        allowed = _INFINITE_EDGES if command == "regimes" else set()
        assert all(c not in ("inf", "-inf") or (name in allowed and c == "inf") for r in body
                   for name, c in zip(header, r)), argv
