"""Command-line driver: sweeps, spectra, transition maps and regime reports.

Configuration comes from an optional flat ``key = value`` file plus
command-line flags (flags win).  All rates are in units of g.  Exit codes:
0 success, 2 config error, 3 solver non-convergence, 4 partial sweep.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import approximations as ap
from . import coherent, exact, spectra
from .errors import (
    ConfigError,
    JclaserError,
    NoSteadyStateError,
    SolverMemoryError,
    TruncationNotConvergedError,
)
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


def build_parser() -> argparse.ArgumentParser:
    ap_ = argparse.ArgumentParser(
        prog="jclaser",
        description="Steady states and emission spectra of the pumped emitter-cavity system (rates in units of g)",
    )
    sub = ap_.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--g", type=float, default=1.0)
        p.add_argument("--gamma-a", type=float, default=0.1)
        p.add_argument("--gamma-sigma", type=float, default=0.0)
        p.add_argument("--pump-sigma", type=float, default=0.0)
        p.add_argument("--pump-a", type=float, default=0.0)
        p.add_argument("--gamma-phi", type=float, default=0.0)
        p.add_argument("--delta", type=float, default=0.0)
        p.add_argument("--n-max", type=int, default=None, help="photon cutoff (default: auto)")
        p.add_argument("--auto-nmax-cap", type=int, default=2048)
        p.add_argument("--tol", type=float, default=1e-7, help="auto-cutoff relative tolerance")
        p.add_argument("--out", default=None, help="output path (default: <command>.csv)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=1)

    def add_sweep(p):
        p.add_argument("--sweep-param", default="pump-sigma")
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

    p = sub.add_parser("steady", help="observables and all approximations at one point")
    add_common(p)

    p = sub.add_parser("sweep", help="observables and approximations along a pump sweep")
    add_common(p)
    add_sweep(p)

    p = sub.add_parser("spectrum", help="emission spectrum for one channel/method")
    add_common(p)
    add_spectrum(p)

    p = sub.add_parser("transitions", help="spectral-line table across a pump sweep")
    add_common(p)
    add_sweep(p)
    p.add_argument("--channel", choices=("cavity", "emitter"), default="cavity")

    p = sub.add_parser("mollow-coherent", help="driven two-level emitter: spectrum, lines, visibility map")
    add_common(p)
    p.add_argument("--omega-laser", type=float, default=1.5, help="drive coupling in gamma_sigma units")
    p.add_argument("--omega-min", type=float, default=-10.0)
    p.add_argument("--omega-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--map-delta-max", type=float, default=5.0)
    p.add_argument("--map-phi-max", type=float, default=5.0)
    p.add_argument("--map-points", type=int, default=41)

    p = sub.add_parser("regimes", help="regime labels and boundaries along a pump sweep")
    add_common(p)
    add_sweep(p)
    return ap_


def system_params(args) -> SystemParams:
    return SystemParams(
        g=args.g,
        gamma_a=args.gamma_a,
        gamma_sigma=args.gamma_sigma,
        P_a=args.pump_a,
        P_sigma=args.pump_sigma,
        gamma_phi=args.gamma_phi,
        delta=args.delta,
    )


def config_dict(args, skip=("config", "out", "workers")) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def sweep_values(args) -> np.ndarray:
    if args.sweep_points < 2:
        raise ConfigError("sweep needs at least 2 points")
    if args.sweep_min >= args.sweep_max:
        raise ConfigError("sweep-min must be below sweep-max")
    if args.sweep_scale == "log":
        if args.sweep_min <= 0:
            raise ConfigError("log sweep requires sweep-min > 0")
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


def _steady_row(params: SystemParams, n_max, cap, tol) -> list:
    P = params.P_sigma
    label = ap.classify_regime(params).label
    lin = ap.linear_models(params)
    row = [P]
    err = ""
    try:
        ss = exact.steady_state(params, n_max=n_max, n_max_cap=cap, rtol=tol)
        row += [ss.n_a, ss.n_sigma, ss.g2, ss.n_a * (ss.g2 - 1.0)]
    except JclaserError as exc:
        row += [float("nan")] * 4
        err = f"{type(exc).__name__}: {exc}"
    row += [label]
    row += [lin["bosonic"].n_a, lin["bosonic"].n_sigma]
    row += [lin["truncated_jc"].n_a, lin["truncated_jc"].n_sigma]
    try:
        sc = ap.semiclassical(params)
        row += [sc.n_a, sc.n_sigma]
    except ValueError:
        row += [float("nan")] * 2
    try:
        row += [ap.thermal_na(params).n_a]
    except ValueError:
        row += [float("nan")]
    try:
        ct = ap.cothermal(params)
        row += [ct.n_a, ct.n_coh, ct.g2]
    except (ValueError, JclaserError):
        row += [float("nan")] * 3
    row += [err]
    return row


def _steady_row_at(item) -> list:
    params, P, n_max, cap, tol = item
    return _steady_row(replace(params, P_sigma=float(P)), n_max, cap, tol)


def cmd_steady(args) -> int:
    params = system_params(args)
    row = _steady_row(params, args.n_max, args.auto_nmax_cap, args.tol)
    out = args.out or "steady.csv"
    _write_table(out, _STEADY_COLUMNS, [row], config_dict(args), args.format)
    print(f"wrote {out}")
    if row[-1]:
        print(f"solver error: {row[-1]}", file=sys.stderr)
        return _EXIT_NOCONV
    return _EXIT_OK


def cmd_sweep(args) -> int:
    if args.sweep_param.replace("-", "_") != "pump_sigma":
        raise ConfigError("only pump-sigma sweeps are supported")
    params = system_params(args)
    pumps = sweep_values(args)
    items = [(params, P, args.n_max, args.auto_nmax_cap, args.tol) for P in pumps]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_steady_row_at, items))
    else:
        rows = [_steady_row_at(it) for it in items]
    out = args.out or "sweep.csv"
    _write_table(out, _STEADY_COLUMNS, rows, config_dict(args), args.format)
    failed = sum(1 for r in rows if r[-1])
    print(f"wrote {out} ({len(rows)} points, {failed} failed)")
    return _EXIT_PARTIAL if failed else _EXIT_OK


def _spectrum_result(params: SystemParams, args):
    omega = np.linspace(args.omega_min, args.omega_max, args.points)
    if args.method == "semiclassical":
        return spectra.semiclassical_mollow(params, omega, channel=args.channel)
    ss = exact.steady_state(params, n_max=args.n_max, n_max_cap=args.auto_nmax_cap, rtol=args.tol)
    if args.method == "exact":
        return exact.spectrum(params, channel=args.channel, ss=ss, omega=omega)
    return spectra.approx_spectrum(params, ss.photon_distribution, args.channel, omega)


def cmd_spectrum(args) -> int:
    params = system_params(args)
    res = _spectrum_result(params, args)
    out = Path(args.out or "spectrum.csv")
    cfg = config_dict(args)
    _write_table(out, ["omega", "S"], [[w, v] for w, v in zip(res.omega, res.values)], cfg, args.format)
    sidecar = out.with_suffix(".lines.json")
    write_json(
        sidecar,
        {
            "channel": res.channel,
            "method": res.method,
            "elastic_weight": res.elastic_weight,
            "validity": {k: v for k, v in res.meta.items() if isinstance(v, (bool, int, float, str))},
            "lines": [asdict(ln) for ln in res.lines],
        },
        cfg,
    )
    print(f"wrote {out} and {sidecar}")
    return _EXIT_OK


def cmd_transitions(args) -> int:
    params = system_params(args)
    pumps = sweep_values(args)
    rows, failures = exact.transition_map(
        params, pumps, channel=args.channel, n_max=args.n_max, n_max_cap=args.auto_nmax_cap, rtol=args.tol
    )
    out = args.out or "transitions.csv"
    _write_table(
        out,
        ["P_sigma", "omega", "L", "gamma", "K"],
        [[r.P_sigma, r.omega, r.L, r.gamma, r.K] for r in rows],
        config_dict(args),
        args.format,
    )
    for P, msg in failures:
        print(f"pump {P}: {msg}", file=sys.stderr)
    print(f"wrote {out} ({len(rows)} lines, {len(failures)} failed points)")
    return _EXIT_PARTIAL if failures else _EXIT_OK


def cmd_mollow_coherent(args) -> int:
    gs = args.gamma_sigma if args.gamma_sigma > 0.0 else 1.0
    drive = LaserDriveParams(
        omega_L=args.omega_laser * gs, delta=args.delta, gamma_sigma=gs, gamma_phi=args.gamma_phi
    )
    omega = np.linspace(args.omega_min * gs, args.omega_max * gs, args.points)
    cfg = config_dict(args)
    out = Path(args.out or "mollow_coherent.csv")
    dec = coherent.coherent_correlator_lines(drive)
    values = coherent.spectrum_from_lines(drive, omega)
    _write_table(out, ["omega", "S"], [[w, v] for w, v in zip(omega, values)], cfg, args.format)
    write_json(
        out.with_suffix(".lines.json"),
        {
            "elastic_weight": dec.coherent_weight,
            "n_sigma": dec.n_sigma,
            "lines": [asdict(ln) for ln in dec.lines],
        },
        cfg,
    )
    # visibility map over (delta, gamma_phi)
    deltas = np.linspace(0.0, args.map_delta_max * gs, args.map_points)
    phis = np.linspace(0.0, args.map_phi_max * gs, args.map_points)
    grid = [(float(d), float(f)) for d in deltas for f in phis]
    V, defined = coherent.asymmetry_visibility_map(
        [LaserDriveParams(omega_L=drive.omega_L, delta=d, gamma_sigma=gs, gamma_phi=f) for d, f in grid]
    )
    rows = [[d, f, float(v), bool(ok)] for (d, f), v, ok in zip(grid, V, defined)]
    vis_path = out.with_name(out.stem + "_visibility.csv")
    _write_table(vis_path, ["delta", "gamma_phi", "visibility", "defined"], rows, cfg, args.format)
    print(f"wrote {out}, {out.with_suffix('.lines.json')} and {vis_path}")
    return _EXIT_OK


def cmd_regimes(args) -> int:
    params = system_params(args)
    pumps = sweep_values(args)
    rows = []
    for P in pumps:
        p = replace(params, P_sigma=float(P))
        lab = ap.classify_regime(p)
        b = lab.boundaries
        rows.append(
            [
                float(P), lab.label, lab.lasing_window_ok,
                b["linear_quantum"], b["quantum_lasing"], b["lasing_quenching"], b["quenching_thermal"],
            ]
        )
    out = args.out or "regimes.csv"
    _write_table(
        out,
        ["P_sigma", "regime", "lasing_window_ok",
         "b_linear_quantum", "b_quantum_lasing", "b_lasing_quenching", "b_quenching_thermal"],
        rows,
        config_dict(args),
        args.format,
    )
    print(f"wrote {out}")
    return _EXIT_OK


def _write_table(path, columns, rows, cfg, fmt) -> None:
    if fmt == "json":
        write_json(Path(path), {"columns": columns, "rows": [[v for v in r] for r in rows]}, cfg)
    else:
        write_csv(path, columns, rows, cfg)


_COMMANDS = {
    "steady": cmd_steady,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "transitions": cmd_transitions,
    "mollow-coherent": cmd_mollow_coherent,
    "regimes": cmd_regimes,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, remaining = parser.parse_known_args(argv)
    if remaining:
        print(f"unknown arguments: {remaining}", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        if getattr(args, "config", None):
            file_cfg = read_config_file(args.config)
            argv_list = list(argv) if argv is not None else sys.argv[1:]
            explicit = {a.split("=")[0].lstrip("-").replace("-", "_") for a in argv_list if a.startswith("--")}
            for k, v in file_cfg.items():
                if k == "command" or k in explicit or not hasattr(args, k):
                    continue
                cur = getattr(args, k)
                caster = type(cur) if cur is not None else str
                if caster is bool:
                    setattr(args, k, v.lower() in ("1", "true", "yes"))
                elif caster is int:
                    setattr(args, k, int(v))
                elif caster is float:
                    setattr(args, k, float(v))
                else:
                    setattr(args, k, v)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (NoSteadyStateError, SolverMemoryError, TruncationNotConvergedError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_NOCONV
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
