"""Command-line driver: sweeps, spectra, transition maps and regime reports.

Configuration comes from an optional flat ``key = value`` file plus
command-line flags (flags win).  All rates are in units of g.  Exit codes:
0 success, 2 config error, 3 named solver failure, 4 partial sweep.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import approximations as ap
from . import coherent, exact, spectra
from .errors import ConfigError, JclaserError
from .lineshape import SpectrumResult
from .output import write_csv, write_json
from .params import LaserDriveParams, SystemParams

_EXIT_OK, _EXIT_CONFIG, _EXIT_NOCONV, _EXIT_PARTIAL = 0, 2, 3, 4


def read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r} (expected key = value)")
        k, _, v = line.partition("=")
        out[k.strip().replace("-", "_")] = v.strip()
    return out


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the six commands, with the flags of ``command`` alone:
    ``--help`` still lists every command, and a run reads one command's
    flags, while each flag added costs argparse a terminal-size query."""
    ap_ = argparse.ArgumentParser(
        prog="jclaser",
        allow_abbrev=False,
        description="Steady states and emission spectra of the pumped emitter-cavity system (rates in units of g)",
    )
    sub = ap_.add_subparsers(dest="command", required=True)

    def add_common(p, cavity=True, solves=True, pump_sigma=False):
        """Flags of every command; ``cavity`` adds the coupling and the cavity
        decay, ``solves`` the cavity pump P_a and the photon cutoff of a
        command that solves steady states, and ``pump_sigma`` the emitter
        pump of a command without a pump axis."""
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--gamma-sigma", type=float, default=0.0)
        p.add_argument("--gamma-phi", type=float, default=0.0)
        p.add_argument("--delta", type=float, default=0.0)
        p.add_argument("--out", default=None, help="output path (default: <command>.<format>, with _ for -)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        # accepted and ignored: scripts written for the former sweep process pool pass it
        p.add_argument("--workers", type=int, default=1, help="ignored")
        if cavity:
            p.add_argument("--g", type=float, default=1.0)
            p.add_argument("--gamma-a", type=float, default=0.1)
        if pump_sigma:
            p.add_argument("--pump-sigma", type=float, default=0.0)
        if solves:
            p.add_argument("--pump-a", type=float, default=0.0)
            p.add_argument("--n-max", type=int, default=None, help="photon cutoff (default: auto)")
            p.add_argument("--auto-nmax-cap", type=int, default=exact.N_MAX_CAP)
            p.add_argument("--tol", type=float, default=exact.CUTOFF_RTOL, help="auto-cutoff relative tolerance")

    def add_sweep(p):
        p.add_argument("--sweep-min", type=float, default=1e-4)
        p.add_argument("--sweep-max", type=float, default=1e3)
        p.add_argument("--sweep-points", type=int, default=101)
        p.add_argument("--sweep-scale", choices=("log", "linear"), default="log")

    def add_spectrum(p):
        p.add_argument("--channel", choices=("cavity", "emitter"), default="emitter")
        p.add_argument("--method", choices=("exact", "approx", "semiclassical"), default="exact")
        p.add_argument("--omega-min", type=float, default=-20.0)
        p.add_argument("--omega-max", type=float, default=20.0)
        p.add_argument("--points", type=int, default=2001)

    def add_transitions(p):
        add_sweep(p)
        p.add_argument("--channel", choices=("cavity", "emitter"), default="cavity")

    def add_mollow(p):
        p.add_argument("--omega-laser", type=float, default=1.5, help="drive coupling in gamma_sigma units")
        p.add_argument("--omega-min", type=float, default=-10.0)
        p.add_argument("--omega-max", type=float, default=10.0)
        p.add_argument("--points", type=int, default=2001)
        p.add_argument("--map-delta-max", type=float, default=5.0)
        p.add_argument("--map-phi-max", type=float, default=5.0)
        p.add_argument("--map-points", type=int, default=41)

    # name: (help, add_common's switches, the command's own flags)
    commands = {
        "steady": ("observables and all approximations at one point", {"pump_sigma": True}, None),
        "sweep": ("observables and approximations along a pump sweep", {}, add_sweep),
        "spectrum": ("emission spectrum for one channel/method", {"pump_sigma": True}, add_spectrum),
        "transitions": ("spectral-line table across a pump sweep", {}, add_transitions),
        "mollow-coherent": ("driven two-level emitter: spectrum, lines, visibility map",
                            {"cavity": False, "solves": False}, add_mollow),
        "regimes": ("regime labels and boundaries along a pump sweep", {"solves": False}, add_sweep),
    }
    for name, (help_, common, add_own) in commands.items():
        p = sub.add_parser(name, allow_abbrev=False, help=help_)
        if name == command:
            add_common(p, **common)
            if add_own:
                add_own(p)
    return ap_


def system_params(args) -> SystemParams:
    return SystemParams(
        g=args.g,
        gamma_a=args.gamma_a,
        gamma_sigma=args.gamma_sigma,
        P_a=getattr(args, "pump_a", 0.0),  # regimes reads no P_a
        P_sigma=getattr(args, "pump_sigma", 0.0),  # a pump axis stands in for it
        gamma_phi=args.gamma_phi,
        delta=args.delta,
    )


def config_dict(args, skip=("config", "out", "workers")) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def check_ranges(args) -> None:
    """Refuse a numeric flag outside the range its command can use."""
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    if hasattr(args, "tol"):  # the cutoff of the exact solves
        if args.n_max is not None and args.n_max < 1:
            raise ConfigError(f"--n-max must be at least 1, got {args.n_max}")
        if args.auto_nmax_cap < 1:
            raise ConfigError(f"--auto-nmax-cap must be at least 1, got {args.auto_nmax_cap}")
        if not args.tol > 0.0:
            raise ConfigError(f"--tol must be > 0, got {args.tol}")
        if getattr(args, "method", None) == "semiclassical":  # the mean field solves no steady state
            cutoff = (("--n-max", args.n_max, None), ("--auto-nmax-cap", args.auto_nmax_cap, exact.N_MAX_CAP),
                      ("--tol", args.tol, exact.CUTOFF_RTOL))
            for flag, value, default in cutoff:
                if value != default:
                    raise ConfigError(f"--method semiclassical solves no steady state and takes no {flag}, got {value}")
    if args.command == "mollow-coherent" and not 0.0 <= args.gamma_sigma < math.inf:
        raise ConfigError(f"--gamma-sigma must be finite and >= 0 (0 means 1), got {args.gamma_sigma}")
    if hasattr(args, "points"):  # the frequency grid of spectrum and mollow-coherent
        if args.points < 1:
            raise ConfigError(f"--points must be at least 1, got {args.points}")
        for flag, value in (("--omega-min", args.omega_min), ("--omega-max", args.omega_max)):
            if not math.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value}")
        if not args.omega_min < args.omega_max:
            raise ConfigError(f"--omega-min must be below --omega-max, got {args.omega_min} and {args.omega_max}")
    if hasattr(args, "map_points"):  # the (delta, gamma_phi) map, in units of gamma_sigma
        unit = args.gamma_sigma or 1.0
        if args.map_points < 1:
            raise ConfigError(f"--map-points must be at least 1, got {args.map_points}")
        if not math.isfinite(args.map_delta_max * unit):
            raise ConfigError(f"--map-delta-max must be finite in units of gamma_sigma, got {args.map_delta_max}")
        if not 0.0 <= args.map_phi_max * unit < math.inf:
            raise ConfigError(f"--map-phi-max must be finite and >= 0 in units of gamma_sigma, got {args.map_phi_max}")


def sweep_values(args) -> np.ndarray:
    if args.sweep_points < 2:
        raise ConfigError(f"--sweep-points must be at least 2, got {args.sweep_points}")
    if args.sweep_min >= args.sweep_max:
        raise ConfigError(f"--sweep-min must be below --sweep-max, got {args.sweep_min} and {args.sweep_max}")
    if args.sweep_scale == "log":
        if args.sweep_min <= 0:
            raise ConfigError(f"--sweep-min must be > 0 on a log sweep, got {args.sweep_min}")
        return np.geomspace(args.sweep_min, args.sweep_max, args.sweep_points)
    return np.linspace(args.sweep_min, args.sweep_max, args.sweep_points)


_STEADY_COLUMNS = [
    "P_sigma",
    "n_a_exact", "n_sigma_exact", "g2_exact", "Q_exact", "regime",
    "n_a_bosonic", "n_sigma_bosonic",
    "n_a_truncated_jc", "n_sigma_truncated_jc",
    "n_a_semiclassical", "n_sigma_semiclassical",
    "n_a_thermal", "n_a_cothermal", "n_coh_cothermal", "g2_cothermal",
    "error",
]


def _steady_rows(params: SystemParams, pumps, n_max, cap, tol) -> list[list]:
    """Table rows at each pump P_sigma of ``pumps``, with the steady states
    and the cothermal roots of all pumps found at once."""
    states = exact.steady_state_sweep(params, pumps, n_max=n_max, n_max_cap=cap, rtol=tol)
    try:
        cothermal = ap.cothermal_sweep(params, pumps)
    except ValueError:
        cothermal = [None] * len(pumps)
    return [_steady_row(replace(params, P_sigma=float(P)), ss, ct) for P, ss, ct in zip(pumps, states, cothermal)]


def _failure(result) -> str:
    """The text of a pump's result on a pump axis: '' for a record, or the
    name and message of the ``JclaserError`` that refused the pump."""
    return f"{type(result).__name__}: {result}" if isinstance(result, JclaserError) else ""


def _steady_row(params: SystemParams, ss, ct) -> list:
    P = params.P_sigma
    label = ap.classify_regime(params)
    nan = float("nan")
    row = [P]
    err = _failure(ss)
    if err:
        row += [nan] * 4
    else:
        g2 = ss.g2
        row += [ss.n_a, ss.n_sigma, g2, ss.n_a * (g2 - 1.0)]
    row += [label]
    # nan where a closed form refuses the rates, as every one refuses a cavity
    # pump, or leaves the physical range (up to roundoff); the rate balance
    # bounds n_a by P_sigma / gamma_a; an infinite value is refused even where
    # that bound overflows to inf (a nan one, the vacuum's g2, is no value)
    n_top = P / params.gamma_a if params.gamma_a > 0.0 else math.inf

    def cells(n_a: float, n_sigma: float, values: list) -> list:
        ok = -1e-12 <= n_a <= n_top * (1.0 + 1e-12) + 1e-12 and -1e-12 <= n_sigma <= 1.0 + 1e-12
        ok = ok and math.inf not in map(abs, values)
        return values if ok else [nan] * len(values)

    try:
        for model in ap.linear_models(params).values():  # bosonic, then truncated_jc
            row += cells(model.n_a, model.n_sigma, [model.n_a, model.n_sigma])
    except ValueError:
        row += [nan] * 4
    try:
        sc = ap.semiclassical(params)
        row += cells(sc.n_a, sc.n_sigma, [sc.n_a, sc.n_sigma])
    except ValueError:
        row += [nan] * 2
    try:
        th = ap.thermal_na(params)
        row += cells(th.n_a, th.n_sigma, [th.n_a])
    except ValueError:
        row += [nan]
    if isinstance(ct, ap.CothermalState):
        row += cells(ct.n_a, 0.0, [ct.n_a, ct.n_coh, ct.g2])
    else:  # no cothermal form at these rates, or no root at this pump
        row += [nan] * 3
    row += [err]
    return row


def cmd_steady(args) -> int:
    params = system_params(args)
    (row,) = _steady_rows(params, [params.P_sigma], args.n_max, args.auto_nmax_cap, args.tol)
    _write_table(args.out, _STEADY_COLUMNS, [[v] for v in row], config_dict(args), args.format)
    print(f"wrote {args.out}")
    if row[-1]:
        print(f"solver error: {row[-1]}", file=sys.stderr)
        return _EXIT_NOCONV
    return _EXIT_OK


def cmd_sweep(args) -> int:
    params = system_params(args)
    rows = _steady_rows(params, sweep_values(args), args.n_max, args.auto_nmax_cap, args.tol)
    _write_table(args.out, _STEADY_COLUMNS, list(zip(*rows)), config_dict(args), args.format)
    failed = sum(1 for r in rows if r[-1])
    print(f"wrote {args.out} ({len(rows)} points, {failed} failed)")
    return _EXIT_PARTIAL if failed else _EXIT_OK


def _spectrum_result(params: SystemParams, args):
    omega = np.linspace(args.omega_min, args.omega_max, args.points)
    if args.method == "semiclassical":
        return spectra.semiclassical_mollow(params, omega, channel=args.channel)
    ss = exact.steady_state(params, n_max=args.n_max, n_max_cap=args.auto_nmax_cap, rtol=args.tol)
    if args.method == "exact":
        return exact.spectrum(ss, omega, args.channel)
    return spectra.approx_spectrum(params, ss.photon_distribution, args.channel, omega)


def cmd_spectrum(args) -> int:
    out = Path(args.out)
    sidecar = _write_spectrum(out, _spectrum_result(system_params(args), args), config_dict(args), args.format)
    print(f"wrote {out} and {sidecar}")
    return _EXIT_OK


def cmd_transitions(args) -> int:
    params = system_params(args)
    pumps = sweep_values(args)
    tables = exact.transition_map(
        params, pumps, channel=args.channel, n_max=args.n_max, n_max_cap=args.auto_nmax_cap, rtol=args.tol
    )
    lines, failures = [], []
    for P, table in zip(pumps, tables):
        if isinstance(table, JclaserError):
            failures.append(f"pump {float(P)}: {_failure(table)}")
        else:
            lines += [(float(P), ln) for ln in table]
    columns = [[P for P, _ in lines], *([getattr(ln, k) for _, ln in lines] for k in ("omega", "L", "gamma", "K"))]
    _write_table(args.out, ["P_sigma", "omega", "L", "gamma", "K"], columns, config_dict(args), args.format)
    for msg in failures:
        print(msg, file=sys.stderr)
    print(f"wrote {args.out} ({len(lines)} lines, {len(failures)} failed points)")
    return _EXIT_PARTIAL if failures else _EXIT_OK


def cmd_mollow_coherent(args) -> int:
    gs = args.gamma_sigma if args.gamma_sigma > 0.0 else 1.0
    drive = LaserDriveParams(
        omega_L=args.omega_laser * gs, delta=args.delta, gamma_sigma=gs, gamma_phi=args.gamma_phi
    )
    omega = np.linspace(args.omega_min * gs, args.omega_max * gs, args.points)
    res = coherent.spectrum(drive, omega)
    # visibility map over (delta, gamma_phi)
    deltas = np.linspace(0.0, args.map_delta_max * gs, args.map_points)
    phis = np.linspace(0.0, args.map_phi_max * gs, args.map_points)
    d_col, f_col = np.repeat(deltas, len(phis)), np.tile(phis, len(deltas))
    V, defined = coherent.asymmetry_visibility_map(drive.omega_L, d_col, gs, f_col)
    cfg = config_dict(args)
    out = Path(args.out)
    sidecar = _write_spectrum(out, res, cfg, args.format)
    vis_path = out.with_name(f"{out.stem}_visibility.{args.format}")
    names = ["delta", "gamma_phi", "visibility", "defined"]
    _write_table(vis_path, names, [d_col, f_col, V, defined], cfg, args.format)
    print(f"wrote {out}, {sidecar} and {vis_path}")
    return _EXIT_OK


def cmd_regimes(args) -> int:
    params = system_params(args)
    pumps = sweep_values(args)
    rows = []
    for P in pumps:
        p = replace(params, P_sigma=float(P))
        b = ap.regime_boundaries(p)
        rows.append(
            [
                float(P), ap.classify_regime(p), ap.lasing_window_ok(p),
                b["linear_quantum"], b["quantum_lasing"], b["lasing_quenching"], b["quenching_thermal"],
            ]
        )
    _write_table(
        args.out,
        ["P_sigma", "regime", "lasing_window_ok",
         "b_linear_quantum", "b_quantum_lasing", "b_lasing_quenching", "b_quenching_thermal"],
        list(zip(*rows)),
        config_dict(args),
        args.format,
    )
    print(f"wrote {args.out}")
    return _EXIT_OK


def _write_spectrum(out: Path, res: SpectrumResult, cfg, fmt) -> Path:
    """Write the grid of ``res`` to ``out`` and its lines to the sidecar
    ``<out>.lines.json``, whose path it returns."""
    _write_table(out, ["omega", "S"], [res.omega, res.values], cfg, fmt)
    sidecar = out.with_suffix(".lines.json")
    write_json(
        sidecar,
        {
            "channel": res.channel,
            "method": res.method,
            "elastic_weight": res.elastic_weight,
            "validity": res.meta,
            "lines": [vars(ln) for ln in res.lines],
        },
        cfg,
    )
    return sidecar


def _write_table(path, names, columns, cfg, fmt) -> None:
    """Write a table given by ``columns``, one sequence of cells per name."""
    if fmt == "json":
        write_json(Path(path), {"columns": names, "rows": list(zip(*columns))}, cfg)
    else:
        write_csv(path, names, columns, cfg)


_COMMANDS = {
    "steady": cmd_steady,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "transitions": cmd_transitions,
    "mollow-coherent": cmd_mollow_coherent,
    "regimes": cmd_regimes,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the parser has no flags of its own, so the first word names the command
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args, remaining = parser.parse_known_args(argv)
    if remaining:
        print(f"unknown arguments: {remaining}", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        if args.config:
            file_cfg = read_config_file(args.config)
            if file_cfg.get("command", args.command) != args.command:
                raise ConfigError(f"config file {args.config} is for command {file_cfg['command']}, not {args.command}")
            unknown = [k for k in file_cfg if k not in vars(args)]
            if unknown:
                raise ConfigError(f"config file {args.config} has keys that {args.command} has no flag for: "
                                  + ", ".join(unknown))
            # string defaults pass through each argument's own type; flags win
            (commands,) = (a for a in parser._actions if a.dest == "command")
            commands.choices[args.command].set_defaults(
                **{k: v for k, v in file_cfg.items() if k not in ("command", "config")}
            )
            args = parser.parse_args(argv)
        check_ranges(args)
        args.out = args.out or f"{args.command.replace('-', '_')}.{args.format}"
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except JclaserError as exc:  # every named solver failure
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_NOCONV
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OverflowError as exc:  # a Python float ** that numpy would have made inf
        print(f"config error: {args.command} overflows the float range at these rates ({exc})", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
