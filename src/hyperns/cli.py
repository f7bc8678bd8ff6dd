"""Command-line surface.

Exit codes are a stable contract: 0 success, 2 config error, 3 numerical
failure (NaN/CFL), 4 I/O error.  A command first builds everything that
can fail on its input, so exit 2 makes no run directory; then it writes
inside `run_directory`, whose manifest is finalized on every exit.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, SimConfig, canonical_text, config_hash,
                     parse_config)
from .diagnostics import (DefectSplitSink, DiagnosticsRecord, energy_budget,
                          linear_damping_curve, mode_decay_curve)
from .dynamics import NumericalError, run
from .experiments import (alpha_comparison, sweep_eps_inputs,
                          sweep_eps_values, vanishing_eps_sweep)
from .lattice import WavenumberLattice
from .snapshot import SnapshotError, write_snapshot
from .symbols import classify, power_symbol, tabulated_symbol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

RECORD_COLUMNS = ["t", "energy", "enstrophy", "visc_dissipation_rate",
                  "hyper_dissipation_rate"]
DIAG_COLUMNS = RECORD_COLUMNS + ["budget_residual"]


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


@contextlib.contextmanager
def _config_input(what: str):
    """Report a ValueError raised on the user's input as a ConfigError.

    Never wrap a snapshot read: SnapshotError is a ValueError too, and its
    exit 4 would turn into exit 2.
    """
    try:
        yield
    except ValueError as err:
        raise ConfigError(f"{what}: {err}") from None


def _load_config(path) -> SimConfig:
    with _config_input(str(path)):  # a UnicodeDecodeError is a ValueError
        # utf-8-sig: a byte-order mark, as some editors write, is not a key
        return parse_config(Path(path).read_text(encoding="utf-8-sig"))


@contextlib.contextmanager
def run_directory(cfg: SimConfig, out):
    """The run directory out/<config_hash[:12]> and its manifest.json.

    Yields (directory, files); the command appends to ``files`` the name of
    each file it has written.  On every exit the manifest is finalized with
    the end time and the sorted files.  An exception leaving the block,
    a BaseException too, is recorded as ``failure`` and re-raised unchanged.
    """
    digest = config_hash(cfg)
    run_dir = Path(out) / digest[:12]
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = dict(config=canonical_text(cfg), code_version=__version__,
                    seed=cfg.seed, config_hash=digest,
                    started=datetime.now(timezone.utc).isoformat(),
                    ended=None, files=[], finalized=False, failure=None)
    path = run_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    files = []
    try:
        yield run_dir, files
    except BaseException as err:
        state = err.state if isinstance(err, NumericalError) else None
        manifest["failure"] = dict(
            exception=type(err).__name__, message=str(err),
            step_index=getattr(state, "step_index", None),
            t=getattr(state, "t", None))
        raise
    finally:
        manifest.update(ended=datetime.now(timezone.utc).isoformat(),
                        files=sorted(files), finalized=True)
        path.write_text(json.dumps(manifest, indent=2) + "\n")


def _write_diagnostics(path, records) -> float:
    """Write diagnostics.csv; returns its largest budget residual."""
    residuals = energy_budget(records).tolist()
    write_csv(path, DIAG_COLUMNS,
              [[getattr(r, c) for c in RECORD_COLUMNS] + [res]
               for r, res in zip(records, residuals)])
    return max(residuals)


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
            **{c: row[c] for c in RECORD_COLUMNS}, shell_spectrum=np.empty(0)))
    if not records:
        raise ValueError("no data rows")
    return records


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    # a malformed table; OSError stays I/O.  A snapshot is read in run.
    with _config_input(f"bad symbol {cfg.symbol!r}"):
        sym = cfg.build_symbol()
    sinks = ()
    if cfg.eps > 0 and sym.kind == "power":
        sinks = (DefectSplitSink(sym, cfg.nu, cfg.eps, cfg.eta),)
    with run_directory(cfg, args.out) as (run_dir, files):
        try:
            final, records = run(cfg, sinks=sinks, symbol=sym)
        except NumericalError as err:
            if err.records:
                _write_diagnostics(run_dir / "diagnostics.csv", err.records)
                files.append("diagnostics.csv")
            raise
        worst = _write_diagnostics(run_dir / "diagnostics.csv", records)
        files.append("diagnostics.csv")
        spec = records[-1].shell_spectrum
        write_csv(run_dir / "spectrum.csv", ["shell", "energy"],
                  [(int(s), e) for s, e in enumerate(spec)])
        files.append("spectrum.csv")
        write_snapshot(final.u, run_dir / "final.hypf", nu=cfg.nu,
                       eps=cfg.eps, symbol_spec=cfg.symbol)
        files.append("final.hypf")
        if sinks:
            d = sinks[0].result()
            write_csv(run_dir / "defect.csv",
                      ["eta", "crossover", "low", "high", "bound_rhs"],
                      [(d.eta, d.crossover, d.low, d.high, d.bound_rhs)])
            files.append("defect.csv")
    print(f"run complete: {run_dir} (max budget residual {worst:.3e})")
    return EXIT_OK


def cmd_sweep_eps(args) -> int:
    cfg = _load_config(args.config)
    # vanishing_eps_sweep builds it again; this build's error names the symbol
    with _config_input(f"bad symbol {cfg.symbol!r}"):
        cfg.build_symbol()
    with _config_input("--eps"):
        eps_list = sweep_eps_values(float(v) for v in args.eps.split(","))
    with _config_input("--s/--T"):
        sweep_eps_inputs(cfg, eps_list, args.s, args.T)
    # the directory's hash is the config file's own config, not t_end = T
    with run_directory(cfg, args.out) as (run_dir, files):
        result = vanishing_eps_sweep(cfg, eps_list, s=args.s, T=args.T)
        write_csv(run_dir / "sweep_eps.csv", ["eps", "sup_error"],
                  list(zip(result.values, result.outcomes["sup_error"])))
        files.append("sweep_eps.csv")
    print(f"slope={result.slope:.17g} intercept={result.intercept:.17g} "
          f"rms={result.rms:.17g}")
    return EXIT_OK


def cmd_compare_alpha(args) -> int:
    cfg = _load_config(args.config)
    eps = args.eps if args.eps is not None else cfg.eps
    with _config_input("--eps"):
        replace(cfg, eps=eps)
    with _config_input("--alpha"):
        alpha_list = [float(v) for v in args.alpha.split(",")]
        for alpha in alpha_list:  # the configs alpha_comparison derives
            replace(cfg, symbol="power", alpha=alpha, eps=eps)
    with run_directory(cfg, args.out) as (run_dir, files):
        result = alpha_comparison(cfg, alpha_list, eps)
        out = result.outcomes
        rows = [(alpha, "nan", "nan", err) if err else (alpha, sup, hyper, "")
                for alpha, sup, hyper, err in zip(
                    result.values, out["sup_enstrophy"],
                    out["total_hyperdissipation"], out["error"])]
        path = run_dir / "compare_alpha.csv"
        write_csv(path, ["alpha", "sup_enstrophy", "total_hyperdissipation",
                         "error"], rows)
        files.append(path.name)
    print(f"comparison written: {path}")
    return EXIT_OK


def _parse_symbol_spec(spec: str, lattice: WavenumberLattice):
    kind, _, arg = spec.partition(":")
    if kind == "power":
        with _config_input(f"bad power symbol spec {spec!r}"):
            mu_s, alpha_s = arg.split(":")
            return power_symbol(lattice, float(mu_s), float(alpha_s))
    if kind == "table":
        with _config_input("bad symbol table"):  # OSError stays I/O
            return tabulated_symbol(lattice, arg)
    raise ConfigError(f"unknown symbol spec {spec!r} (use power:MU:ALPHA "
                      "or table:PATH)")


def cmd_classify(args) -> int:
    with _config_input("--n/--dim"):
        lattice = WavenumberLattice(args.n, args.dim)
    sym = _parse_symbol_spec(args.symbol, lattice)
    with _config_input(f"--band {args.band!r} (LO:HI)"):
        lo, _, hi = args.band.partition(":")
        cls = classify(sym, (float(lo), float(hi)))
    parts = [f"tag={cls.tag}"]
    if cls.alpha_hat is not None:
        parts.append(f"alpha_hat={cls.alpha_hat:.6g}")
        parts.append(f"c0_hat={cls.c0_hat:.6g}")
        parts.append(f"c1_hat={cls.c1_hat:.6g}")
    parts.append(f"fit_residual={cls.fit_residual:.3e}")
    print(" ".join(parts))
    return EXIT_OK


def cmd_linear_spectra(args) -> int:
    with _config_input("--alpha"):
        alphas = [float(v) for v in args.alpha.split(",")]
    # (kind, file, abscissa, column prefix, values, curves), built before a write
    with _config_input("linear-spectra"):
        if not (args.kmax >= 0 and args.points >= 1
                and 0 <= args.tmax < np.inf):
            raise ValueError("need --kmax >= 0, --points >= 1 and a finite "
                             f"--tmax >= 0, got {args.kmax}, {args.points} "
                             f"and {args.tmax:g}")
        k = np.arange(0, args.kmax + 1, dtype=float)
        tables = [("damping", "damping_rates.csv", "k", "lambda_alpha", k,
                   [linear_damping_curve(args.nu, args.mu, a, k)
                    for a in alphas])]
        if args.k0 is not None:
            t = np.linspace(0.0, args.tmax, args.points)
            tables.append(("decay", "mode_decay.csv", "t", "E_alpha", t,
                           [mode_decay_curve(args.nu, args.mu, a, args.k0, t)
                            for a in alphas]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for kind, name, x, prefix, xs, curves in tables:
        write_csv(out / name, [x] + [f"{prefix}_{a:g}" for a in alphas],
                  zip(xs, *curves))
        print(f"{kind} table: {out / name}")
    return EXIT_OK


def cmd_energy_audit(args) -> int:
    if not 0 <= args.tol < np.inf:
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol:g}")
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
    except (SnapshotError, OSError) as err:
        print(f"error: io: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
