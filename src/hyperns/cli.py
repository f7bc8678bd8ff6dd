"""Command-line surface.

Exit codes are a stable contract: 0 success, 2 config error, 3 numerical
failure (NaN/CFL), 4 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, SimConfig, config_hash, parse_config
from .diagnostics import (DefectSplitSink, DiagnosticsRecord, energy_budget,
                          linear_damping_curve, mode_decay_curve)
from .dynamics import NumericalError, run
from .experiments import (alpha_comparison, sweep_eps_values,
                          vanishing_eps_sweep)
from .lattice import WavenumberLattice
from .snapshot import (SnapshotError, finalize_manifest, write_manifest,
                       write_snapshot)
from .symbols import classify, power_symbol, tabulated_symbol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DIAG_COLUMNS = ["t", "energy", "enstrophy", "visc_dissipation_rate",
                "hyper_dissipation_rate", "budget_residual"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, header: list, rows) -> None:
    """CSV with a header row, LF endings, 17 significant digits."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_config(path) -> SimConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _run_dir(cfg: SimConfig, out: str) -> Path:
    return Path(out) / config_hash(cfg)[:12]


def _write_diagnostics(path, records) -> None:
    write_csv(path, DIAG_COLUMNS,
              [[getattr(r, c) for c in DIAG_COLUMNS] for r in records])


def _read_diagnostics(path) -> list:
    """DiagnosticsRecords of a diagnostics.csv; ValueError if malformed."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",") if lines else []
    missing = [c for c in DIAG_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"missing column(s) {', '.join(missing)}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"line {lineno}: {len(fields)} fields for "
                             f"{len(header)} columns")
        row = dict(zip(header, map(float, fields)))
        records.append(DiagnosticsRecord(
            **{c: row[c] for c in DIAG_COLUMNS}, shell_spectrum=np.empty(0)))
    if not records:
        raise ValueError("no data rows")
    return records


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    try:
        sym = cfg.build_symbol()
    except ValueError as err:  # a malformed table; OSError stays I/O
        raise ConfigError(f"bad symbol {cfg.symbol!r}: {err}") from None
    run_dir = _run_dir(cfg, args.out)
    write_manifest(run_dir, cfg)
    diag_path = run_dir / "diagnostics.csv"
    sinks = ()
    if cfg.eps > 0 and cfg.symbol.startswith("power"):
        sinks = (DefectSplitSink(sym, cfg.nu, cfg.eps, cfg.eta),)
    try:
        final, records = run(cfg, sinks=sinks, symbol=sym)
    except NumericalError as err:
        if err.records:
            _write_diagnostics(diag_path, err.records)
            finalize_manifest(run_dir, [diag_path.name])
        raise
    _write_diagnostics(diag_path, records)
    spec_path = run_dir / "spectrum.csv"
    spec = records[-1].shell_spectrum
    write_csv(spec_path, ["shell", "energy"],
              [(int(s), e) for s, e in enumerate(spec)])
    snap_path = run_dir / "final.hypf"
    write_snapshot(final.u, snap_path, nu=cfg.nu, eps=cfg.eps,
                   symbol_spec=cfg.symbol)
    if sinks:
        d = sinks[0].result()
        write_csv(run_dir / "defect.csv",
                  ["eta", "crossover", "low", "high", "bound_rhs"],
                  [(d.eta, d.crossover, d.low, d.high, d.bound_rhs)])
    finalize_manifest(run_dir, [p.name for p in run_dir.iterdir()
                                if p.name != "manifest.json"])
    print(f"run complete: {run_dir} "
          f"(max budget residual {max(r.budget_residual for r in records):.3e})")
    return EXIT_OK


def cmd_sweep_eps(args) -> int:
    cfg = _load_config(args.config)
    try:
        eps_list = sweep_eps_values(float(v) for v in args.eps.split(","))
    except ValueError as err:
        raise ConfigError(f"--eps: {err}") from None
    run_dir = _run_dir(cfg, args.out)
    write_manifest(run_dir, cfg)
    try:
        result = vanishing_eps_sweep(cfg, eps_list, s=args.s, T=args.T)
    except NumericalError:  # e.g. an under-resolved reference: no table
        finalize_manifest(run_dir, [])
        raise
    path = run_dir / "sweep_eps.csv"
    write_csv(path, ["eps", "sup_error"],
              list(zip(result.values, result.outcomes["sup_error"])))
    finalize_manifest(run_dir, [path.name])
    print(f"slope={result.slope:.17g} intercept={result.intercept:.17g} "
          f"rms={result.rms:.17g}")
    return EXIT_OK


def cmd_compare_alpha(args) -> int:
    cfg = _load_config(args.config)
    try:
        alpha_list = [float(v) for v in args.alpha.split(",")]
    except ValueError as err:
        raise ConfigError(f"--alpha: {err}") from None
    eps = args.eps if args.eps is not None else cfg.eps
    run_dir = _run_dir(cfg, args.out)
    write_manifest(run_dir, cfg)
    result = alpha_comparison(cfg, alpha_list, eps)
    rows = []
    for i, alpha in enumerate(result.values):
        err = result.outcomes["error"][i]
        if err:
            rows.append((alpha, "nan", "nan", err))
            continue
        rows.append((alpha, result.outcomes["sup_enstrophy"][i],
                     result.outcomes["total_hyperdissipation"][i], ""))
    path = run_dir / "compare_alpha.csv"
    write_csv(path, ["alpha", "sup_enstrophy", "total_hyperdissipation",
                     "error"], rows)
    finalize_manifest(run_dir, [path.name])
    print(f"comparison written: {path}")
    return EXIT_OK


def _parse_symbol_spec(spec: str, lattice: WavenumberLattice):
    kind, _, arg = spec.partition(":")
    if kind == "power":
        try:
            mu_s, alpha_s = arg.split(":")
            return power_symbol(lattice, float(mu_s), float(alpha_s))
        except ValueError as err:
            raise ConfigError(f"bad power symbol spec {spec!r}: {err}") from None
    if kind == "table":
        try:
            return tabulated_symbol(lattice, arg)
        except ValueError as err:  # a malformed table; OSError stays I/O
            raise ConfigError(f"bad symbol table: {err}") from None
    raise ConfigError(f"unknown symbol spec {spec!r} (use power:MU:ALPHA "
                      "or table:PATH)")


def cmd_classify(args) -> int:
    lattice = WavenumberLattice(args.n, args.dim)
    sym = _parse_symbol_spec(args.symbol, lattice)
    try:
        lo, hi = (float(v) for v in args.band.split(":"))
    except ValueError:
        raise ConfigError(f"bad band {args.band!r}, expected LO:HI") from None
    cls = classify(sym, (lo, hi))
    parts = [f"tag={cls.tag}"]
    if cls.alpha_hat is not None:
        parts.append(f"alpha_hat={cls.alpha_hat:.6g}")
        parts.append(f"c0_hat={cls.c0_hat:.6g}")
        parts.append(f"c1_hat={cls.c1_hat:.6g}")
    parts.append(f"fit_residual={cls.fit_residual:.3e}")
    print(" ".join(parts))
    return EXIT_OK


def cmd_linear_spectra(args) -> int:
    alphas = [float(v) for v in args.alpha.split(",")]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    k = np.arange(0, args.kmax + 1, dtype=float)
    cols = [k]
    header = ["k"]
    for alpha in alphas:
        cols.append(linear_damping_curve(args.nu, args.mu, alpha, k))
        header.append(f"lambda_alpha_{alpha:g}")
    path = out / "damping_rates.csv"
    write_csv(path, header, zip(*cols))
    print(f"damping table: {path}")
    if args.k0 is not None:
        t = np.linspace(0.0, args.tmax, args.points)
        cols = [t]
        header = ["t"]
        for alpha in alphas:
            cols.append(mode_decay_curve(args.nu, args.mu, alpha, args.k0, t))
            header.append(f"E_alpha_{alpha:g}")
        path = out / "mode_decay.csv"
        write_csv(path, header, zip(*cols))
        print(f"decay table: {path}")
    return EXIT_OK


def cmd_energy_audit(args) -> int:
    diag = Path(args.rundir) / "diagnostics.csv"
    try:
        worst = float(np.max(energy_budget(_read_diagnostics(diag))))
    except ValueError as err:
        raise OSError(f"{diag}: malformed: {err}") from None
    print(f"max budget residual: {worst:.17g} (tolerance {args.tol:g})")
    if not worst <= args.tol:  # a NaN residual fails too
        raise NumericalError(f"budget residual {worst:.3e} exceeds {args.tol:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hyperns")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="integrate one configuration")
    sp.add_argument("config")
    sp.add_argument("--out", default="runs")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep-eps", help="vanishing-hyperdissipation sweep")
    sp.add_argument("config")
    sp.add_argument("--eps", required=True, help="comma-separated list")
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--out", default="runs")
    sp.set_defaults(func=cmd_sweep_eps)

    sp = sub.add_parser("compare-alpha", help="compare dissipation orders")
    sp.add_argument("config")
    sp.add_argument("--alpha", required=True, help="comma-separated list")
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--out", default="runs")
    sp.set_defaults(func=cmd_compare_alpha)

    sp = sub.add_parser("classify", help="classify a multiplier symbol")
    sp.add_argument("--symbol", required=True,
                    help="power:MU:ALPHA or table:PATH")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--band", required=True, help="LO:HI physical wavenumbers")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("linear-spectra", help="emit linear damping/decay tables")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--alpha", required=True, help="comma-separated list")
    sp.add_argument("--kmax", type=int, required=True)
    sp.add_argument("--k0", type=float, default=None)
    sp.add_argument("--tmax", type=float, default=0.1)
    sp.add_argument("--points", type=int, default=201)
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=cmd_linear_spectra)

    sp = sub.add_parser("energy-audit", help="re-derive the budget residual")
    sp.add_argument("rundir")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.set_defaults(func=cmd_energy_audit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"error: numerical: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SnapshotError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
