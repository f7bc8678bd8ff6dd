"""The benchmark's workloads: inputs made from the seed, one round, checks.

A round is one whole command: `hyperns run` through `cli.main` for the
run workloads, and `vanishing_eps_sweep` plus its table for `sweep-eps`.
Every round of a workload does the same operations, so a run attempts
whole rounds only.  An operation is one time step.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import checks

EPS_SWEEP = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


class RoundFailed(RuntimeError):
    """The command of a round did not complete."""


def _config_text(**values) -> str:
    return "".join(f"{key} = {val}\n" for key, val in values.items())


def _cli_run(cfg_path: Path, out_dir: Path) -> None:
    from hyperns import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(["run", str(cfg_path), "--out", str(out_dir)])
    if code != 0:
        raise RoundFailed(f"hyperns run exited {code}: {buf.getvalue().strip()}")


def _only_subdir(out_dir: Path) -> Path:
    subdirs = [p for p in out_dir.iterdir() if p.is_dir()]
    if len(subdirs) != 1:
        raise RoundFailed(f"expected one run directory in {out_dir}, "
                          f"found {len(subdirs)}")
    return subdirs[0]


class Workload:
    """One workload; subclasses set the attributes and the three methods."""

    name: str
    field_shape: tuple    # velocity-field shape, for the reference kernel
    steps_per_round: int  # operations one round attempts
    block_steps: int      # steps per timed sample interval
    ref_reps: int         # reference-kernel calls per tick (a few ms or more)
    setup_repeats = 3     # extra set-ups timed after each round

    def prepare(self, work: Path, seed: int) -> None:
        """Write the inputs of every round; not timed."""
        raise NotImplementedError

    def round(self, out_dir: Path) -> None:
        """Run the command once, writing into `out_dir`."""
        raise NotImplementedError

    def check(self, out_dir: Path) -> list:
        """Failure messages for the round's output; empty if correct."""
        raise NotImplementedError


class Run2dDense(Workload):
    """Criterion-2 configuration for 100 steps, sampled at every step."""

    name = "run-2d-dense"
    field_shape = (2, 128, 128)
    steps_per_round = 100
    block_steps = 10
    ref_reps = 5

    def prepare(self, work, seed):
        self.cfg_path = work / "run-2d-dense.cfg"
        self.cfg_path.write_text(_config_text(
            nu=1e-2, eps=1e-4, symbol="power", alpha=1.25, mu=1, n=128,
            dim=2, dt=1e-3, t_end=0.1, ic="random", amplitude=1.0, seed=seed,
            output_every=1))

    def round(self, out_dir):
        _cli_run(self.cfg_path, out_dir)

    def check(self, out_dir):
        return checks.run_directory(_only_subdir(out_dir))


class Resume3d(Workload):
    """3-D n=64 run resumed from a seeded snapshot, sampled every 2 steps."""

    name = "resume-3d"
    field_shape = (3, 64, 64, 64)
    steps_per_round = 4
    block_steps = 2
    ref_reps = 3

    def prepare(self, work, seed):
        from hyperns.dynamics import random_field
        from hyperns.lattice import WavenumberLattice
        from hyperns.snapshot import write_snapshot
        rng = np.random.default_rng(seed)
        # a binary fraction, so the tag survives any decimal round trip
        self.t0 = float(rng.integers(1, 256)) / 256.0
        u = random_field(WavenumberLattice(64, 3), seed, 2.0, 3.0, 1.0)
        u.t = self.t0
        snap = work / "resume-3d-input.hypf"
        write_snapshot(u, snap, nu=1e-2, eps=1e-4, symbol_spec="power")
        self.cfg_path = work / "resume-3d.cfg"
        self.cfg_path.write_text(_config_text(
            nu=1e-2, eps=1e-4, symbol="power", alpha=1.25, mu=1, n=64, dim=3,
            dt=1e-3, t_end=0.004, ic=f"snapshot:{snap}", output_every=2))

    def round(self, out_dir):
        _cli_run(self.cfg_path, out_dir)

    def check(self, out_dir):
        # defect.csv is not checked: it integrates over [0, t_end] while
        # a resumed run spans [t0, t0 + t_end] (see CHANGES.md)
        return checks.run_directory(_only_subdir(out_dir), t0=self.t0,
                                    defect=False)


class SweepEps(Workload):
    """Criterion-6 vanishing-eps sweep (eps = 0 reference plus five eps)."""

    name = "sweep-eps"
    field_shape = (2, 64, 64)
    steps_per_round = 6 * 250
    block_steps = 50
    ref_reps = 15
    setup_repeats = 10

    def prepare(self, work, seed):
        self.cfg_text = _config_text(
            nu=0.1, eps=0.0, symbol="power", alpha=1.5, n=64, dim=2,
            dt=2e-3, t_end=0.5, ic="random", k_c=1.5, amplitude=0.5,
            seed=seed, output_every=10)

    def round(self, out_dir):
        from hyperns import cli, config, experiments
        cfg = config.parse_config(self.cfg_text)
        # one worker: a second thread gave no wall-time gain on two cores
        # and made the timings unsteady (README.md)
        res = experiments.vanishing_eps_sweep(cfg, EPS_SWEEP, s=3.0, T=0.5,
                                              max_workers=1)
        cli.write_csv(out_dir / "sweep_eps.csv", ["eps", "sup_error"],
                      list(zip(res.values, res.outcomes["sup_error"])))

    def check(self, out_dir):
        return checks.sweep_table(out_dir / "sweep_eps.csv", EPS_SWEEP)


WORKLOADS = {w.name: w for w in (Run2dDense, Resume3d, SweepEps)}
