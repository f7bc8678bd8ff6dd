"""Benchmark of the hyperns solver: one workload, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload (see workloads.py) until S seconds have
passed and checks the output of every round (see checks.py).  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

Times other than setup_s are in reference units: the time of a fixed
plain-numpy kernel (an FFT round trip and an element-wise multiply on an
array of the workload's velocity-field shape), timed beside the work at
sample-interval boundaries and around each round; the kernel's own time
is excluded from the workload's.  This cancels most of the host's swings
in speed.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the public functions of hyperns are wrapped in spans (see
spans.py) after one unmeasured warm-up round, and the metrics are the
per-layer ones.  README.md has details.
"""
from __future__ import annotations

import os

# numpy's BLAS would start a thread per core at import; the load is meant
# to come from the workload's own threads only
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIB = 2.0 ** 20
# glibc serves a request at or above its mmap threshold (128 KiB at start)
# with a fresh mapping, and raises the threshold to the size of the first
# larger mapped block that is freed.  Freeing one block of this size first
# fixes the threshold for the whole run, so that neither the benchmark's
# own allocations nor the order of the program's first frees move it; a
# (2,64,64) complex field is exactly 128 KiB and ran 20% slower unpinned.
MMAP_PIN_BYTES = 16 * 2 ** 20

now = time.perf_counter


class RefKernel:
    """The reference unit: FFT round trip plus an element-wise multiply.

    Plain numpy on a fixed random array of the workload's velocity-field
    shape; nothing from hyperns.  A call times `reps` kernels and returns
    their median.
    """

    def __init__(self, shape: tuple, reps: int):
        rng = np.random.default_rng(20160401)
        self.field = rng.standard_normal(shape)
        self.factor = np.exp(-rng.random(shape[1:]))
        self.axes = tuple(range(1, len(shape)))
        self.reps = reps

    def __call__(self) -> float:
        times = []
        for _ in range(self.reps):
            t0 = now()
            a = np.fft.fftn(self.field, axes=self.axes)
            a *= self.factor
            np.fft.ifftn(a, axes=self.axes)
            times.append(now() - t0)
        return statistics.median(times)


class Round:
    """The timeline of one round, cut into pieces by reference ticks.

    A tick times the reference kernel.  The piece between two ticks is
    measured in units of the mean of their two reference times, so each
    stretch of work is divided by the reference time beside it, and the
    ticks' own time falls outside every piece.  A piece is "setup" (up to
    a trajectory's first step), "step" (holding `steps` time steps) or
    "output" (after a trajectory's last step).
    """

    def __init__(self, kernel=None):
        self.kernel = kernel
        self.pieces = []           # (t_lo, t_hi, reference s, steps, kind)
        self.first_sample = None   # end of set-up: just before the first step
        self.recorded_bytes = 0    # states held by run sinks at their end
        self.out_bytes = defaultdict(int)  # by suffix, of the files written
        if kernel is not None:
            self.mark_ref = kernel()
        self.start = self.mark = now()

    def tick(self, kind: str, steps: int = 0) -> None:
        """Close the current piece."""
        t_hi = now()
        ref = self.kernel()
        self.pieces.append((self.mark, t_hi, 0.5 * (self.mark_ref + ref),
                            steps, kind))
        self.mark, self.mark_ref = now(), ref

    def units(self, kind: str | None = None) -> float:
        """Reference units of the pieces of a kind, or of all pieces."""
        return sum((hi - lo) / ref for lo, hi, ref, _, k in self.pieces
                   if kind in (None, k))


class SetupDone(BaseException):
    """Raised at the first sample of a set-up probe, to end the command.

    A BaseException, so that no `except Exception` in the program stops it.
    """


class Probe:
    """Sink appended to every `dynamics.run` call: ticks at samples.

    Ticks at the first sample (ending a set-up piece), at every sample
    `block_steps` or more steps after the previous tick, and at the last.
    """

    def __init__(self, bench, n_steps: int):
        self.bench = bench
        self.n_steps = n_steps
        self.step = None

    def __call__(self, state, record):
        rnd = self.bench.round
        step = state.step_index
        if self.step is None:
            if rnd.first_sample is None:
                rnd.first_sample = now()
            if self.bench.setup_only:
                raise SetupDone
            rnd.tick("setup")
        elif step - self.step < self.bench.workload.block_steps \
                and step < self.n_steps:
            return
        else:
            rnd.tick("step", step - self.step)
        self.step = step


class Bench:
    """Runs, times and checks the rounds of one workload."""

    def __init__(self, workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.kernel = RefKernel(workload.field_shape, workload.ref_reps)
        self.round = Round()
        self.rounds = []        # measured rounds (traced, with a tracer)
        self.plain_rounds = []  # with a tracer: rounds run untraced
        self.attempted = 0
        self.failed = 0
        self.errors = []        # rounds whose command raised
        self.check_fails = []   # outputs that failed a check
        self.setup_only = False
        self.setups = []        # seconds from command start to first step

    def install_probe(self) -> None:
        from hyperns import dynamics
        from spans import rebind
        run = dynamics.run
        bench = self

        def run_probed(cfg, sinks=(), **kwargs):
            rnd = bench.round
            if rnd.first_sample is not None and not bench.setup_only:
                rnd.tick("output")  # ends the previous trajectory's output
            probe = Probe(bench, int(round(cfg.t_end / cfg.dt)))
            try:
                return run(cfg, sinks=tuple(sinks) + (probe,), **kwargs)
            finally:
                held = sum(u.coeffs.nbytes for sink in sinks
                           for u in getattr(sink, "states", ()))
                bench.round.recorded_bytes = max(bench.round.recorded_bytes,
                                                 held)

        rebind(run, run_probed)

    def one_round(self, out_dir: Path):
        """Run, time and check one round; its output is removed after.

        Returns the Round, or None if the command raised.
        """
        wl = self.workload
        out_dir.mkdir(parents=True)
        self.attempted += wl.steps_per_round
        gc.collect()  # every round starts from the same collector state
        rnd = self.round = Round(self.kernel)
        try:
            wl.round(out_dir)
        except Exception:
            self.failed += wl.steps_per_round
            self.errors.append(traceback.format_exc(limit=-3).strip())
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
        rnd.tick("output")
        for f in out_dir.rglob("*"):
            if f.suffix in (".csv", ".hypf"):
                rnd.out_bytes[f.suffix] += f.stat().st_size
        try:
            self.check_fails.extend(wl.check(out_dir))
        except Exception as err:
            self.check_fails.append(f"unreadable output: {err!r}")
        shutil.rmtree(out_dir)
        return rnd

    def setup_probe(self, out_dir: Path) -> None:
        """Time the set-up of one command, ended before its first step."""
        out_dir.mkdir(parents=True)
        rnd = self.round = Round()
        self.setup_only = True
        try:
            self.workload.round(out_dir)
        except SetupDone:
            self.setups.append(rnd.first_sample - rnd.start)
        except Exception:
            self.errors.append(traceback.format_exc(limit=-3).strip())
        finally:
            self.setup_only = False
            shutil.rmtree(out_dir, ignore_errors=True)

    def run(self, seconds: float, work: Path) -> None:
        self.workload.prepare(work, self.seed)
        self.install_probe()
        if self.tracer is not None:
            # an unmeasured round, whose first step runs under tracemalloc
            self.tracer.memory_probe = True
            self.tracer.enabled = True
            self.one_round(work / "warmup")
            self.tracer.clear()
        start = now()
        i = 0
        while now() - start < seconds:
            # with a tracer, every other round runs untraced, for the overhead
            traced = self.tracer is not None and i % 2 == 0
            if self.tracer is not None:
                self.tracer.enabled = traced
            rnd = self.one_round(work / f"round{i}")
            if rnd is not None:
                plain = self.tracer is not None and not traced
                (self.plain_rounds if plain else self.rounds).append(rnd)
                self.setups.append(rnd.first_sample - rnd.start)
            if self.tracer is None:
                for j in range(self.workload.setup_repeats):
                    self.setup_probe(work / f"setup{i}-{j}")
            i += 1
        if self.tracer is not None:
            self.tracer.enabled = False

    # -- metrics ------------------------------------------------------------

    def step_pieces(self) -> list:
        """The pieces holding time steps, of all measured rounds."""
        return [p for rnd in self.rounds for p in rnd.pieces if p[3]]

    def end_to_end(self) -> dict:
        """Medians over rounds; times in reference units, setup_s in s."""
        med = statistics.median
        return {
            "setup_s": (med(self.setups), "s"),
            "step_rel": (step_rel(self.rounds), "ref"),
            "wall_rel": (med(rnd.units() for rnd in self.rounds), "ref"),
            "output_rel": (med(rnd.units("output") for rnd in self.rounds),
                           "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
        }

    def host(self) -> dict:
        """The raw figures: reference, step and round times."""
        med = statistics.median
        return {
            "host.ref_ms": (1e3 * med(p[2] for rnd in self.rounds
                                      for p in rnd.pieces), "ms"),
            "host.step_ms": (1e3 * med((hi - lo) / n for lo, hi, _, n, _
                                       in self.step_pieces()), "ms"),
            "host.wall_s": (med(sum(hi - lo for lo, hi, *_ in rnd.pieces)
                                for rnd in self.rounds), "s"),
        }


def step_rel(rounds) -> float:
    """Median over rounds of the reference units per step."""
    return statistics.median(rnd.units("step") / sum(p[3] for p in rnd.pieces)
                             for rnd in rounds)


def per_layer(bench: Bench, tracer) -> tuple:
    """Per-layer metrics from the spans of the measured rounds.

    Returns (metrics, missing): a metric whose spans were not wrapped,
    because the function no longer exists, is reported as missing.
    """
    from spans import FFT_SPANS, STEP_SPAN
    tot = tracer.totals()
    rounds = len(bench.rounds)
    steps = tot[STEP_SPAN]["count"] if STEP_SPAN in tot else 0
    metrics, missing = {}, []

    def put(name, unit, spans, value):
        if not any(s in tracer.names for s in spans):
            missing.append(f"{name} (no {', '.join(spans)})")
            return
        try:
            metrics[name] = (value(), unit)
        except (ZeroDivisionError, statistics.StatisticsError):
            missing.append(f"{name} (no calls or rounds to measure)")

    def step_self(*names):
        return 1e3 * sum(tot[n]["step_self"] for n in names) / steps

    def per_round_ms(*names):
        return 1e3 * sum(tot[n]["incl"] for n in names) / rounds

    velocity = "lattice.SpectralVelocity.__post_init__"
    put("lattice.fft_calls_per_step", "count", FFT_SPANS,
        lambda: sum(tot[n]["step_count"] for n in FFT_SPANS) / steps)
    put("lattice.fft_points_per_step", "count", FFT_SPANS,
        lambda: sum(tot[n]["step_points"] for n in FFT_SPANS) / steps)
    put("lattice.fft_ms_per_step", "ms", FFT_SPANS,
        lambda: step_self(*FFT_SPANS))
    put("lattice.leray_ms_per_step", "ms", ["lattice.leray_project"],
        lambda: step_self("lattice.leray_project"))
    put("lattice.dealias_ms_per_step", "ms", ["lattice.dealias"],
        lambda: step_self("lattice.dealias"))
    put("lattice.velocity_objects_per_step", "count", [velocity],
        lambda: tot[velocity]["step_count"] / steps)
    put("lattice.velocity_ms_per_step", "ms", [velocity],
        lambda: step_self(velocity))
    put("dynamics.nonlinear_self_ms_per_step", "ms",
        ["dynamics.nonlinear_term"], lambda: step_self("dynamics.nonlinear_term"))
    put("dynamics.step_self_ms", "ms", [STEP_SPAN],
        lambda: step_self(STEP_SPAN))
    put("dynamics.cfl_ms_per_step", "ms", ["dynamics.Stepper.cfl"],
        lambda: step_self("dynamics.Stepper.cfl"))
    record = "diagnostics.make_record"
    put("diagnostics.samples", "count", [record],
        lambda: tot[record]["count"] / rounds)
    put("diagnostics.record_ms_per_sample", "ms", [record],
        lambda: 1e3 * tot[record]["incl"] / max(tot[record]["count"], 1))
    put("diagnostics.defect_split_ms", "ms", ["diagnostics.defect_split"],
        lambda: per_round_ms("diagnostics.defect_split"))
    # trajectories integrated by the studies, i.e. not by `hyperns run`
    put("experiments.runs", "count", ["dynamics.run"],
        lambda: sum(p != "cli.cmd_run"
                    for p in tracer.parent_labels("dynamics.run")) / rounds)
    put("experiments.sobolev_ms", "ms", ["lattice.sobolev_norm"],
        lambda: per_round_ms("lattice.sobolev_norm"))
    put("experiments.tail_ms", "ms", ["experiments.spectral_tail_fraction"],
        lambda: per_round_ms("experiments.spectral_tail_fraction"))
    put("snapshot.read_ms", "ms", ["snapshot.read_snapshot"],
        lambda: per_round_ms("snapshot.read_snapshot"))
    put("snapshot.write_ms", "ms", ["snapshot.write_snapshot"],
        lambda: per_round_ms("snapshot.write_snapshot"))
    put("snapshot.bytes_written", "B", ["snapshot.write_snapshot"],
        lambda: sum(r.out_bytes[".hypf"] for r in bench.rounds) / rounds)
    put("cli.csv_ms", "ms", ["cli.write_csv"],
        lambda: per_round_ms("cli.write_csv"))
    put("cli.csv_bytes", "B", ["cli.write_csv"],
        lambda: sum(r.out_bytes[".csv"] for r in bench.rounds) / rounds)
    put("config.parse_ms", "ms", ["config.parse_config"],
        lambda: per_round_ms("config.parse_config"))
    builders = [n for n in tracer.names
                if n.startswith("symbols.") and n.endswith("_symbol")]
    put("symbols.build_ms", "ms", builders or ["symbols.*_symbol"],
        lambda: per_round_ms(*builders))
    put("memory.recorded_states_mb", "MiB", ["dynamics.run"],
        lambda: max(r.recorded_bytes for r in bench.rounds) / MIB)
    put("memory.step_peak_mb", "MiB", [STEP_SPAN],
        lambda: tracer.step_peak_bytes / MIB)
    windows = [(lo, hi) for lo, hi, *_ in bench.step_pieces()]
    span_total = sum(hi - lo for lo, hi in windows)
    put("trace.accounted_share", "ratio", [STEP_SPAN],
        lambda: tracer.covered(windows) / span_total)
    # step_rel of the traced rounds, and over that of the untraced ones
    put("trace.step_rel", "ref", [STEP_SPAN], lambda: step_rel(bench.rounds))
    put("trace.overhead", "ratio", [STEP_SPAN],
        lambda: step_rel(bench.rounds) / step_rel(bench.plain_rounds) - 1.0)
    return metrics, missing


def provenance() -> dict:
    """What the figures depend on: code, numpy, CPU features, cores."""
    import hashlib
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperns").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        simd = [k for k, v in __cpu_features__.items() if v]
    except ImportError:
        simd = []
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "numpy": np.__version__, "python": platform.python_version(),
            "simd": simd, "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "hyperns" / "__init__.py").is_file():
        print(f"error: no hyperns sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hyperns.cli  # noqa: F401  (imports every hyperns module)
    np.empty(MMAP_PIN_BYTES, dtype=np.uint8)  # freed at once: pins the threshold

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    bench = Bench(WORKLOADS[args.workload](), args.seed, tracer)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        bench.run(args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in bench.errors:
        print(f"round failed: {err}", file=sys.stderr)
    if not bench.rounds:
        print("error: no round completed", file=sys.stderr)
        return 1

    info = provenance()
    info.update(workload=args.workload, seed=args.seed, rounds=len(bench.rounds),
                intervals=len(bench.step_pieces()))
    print("provenance: " + json.dumps(info))
    for name, (value, unit) in bench.host().items():
        print(f"{name}: {value:.6g} {unit}")
    if tracer is None:
        metrics = bench.end_to_end()
    else:
        metrics, missing = per_layer(bench, tracer)
        metrics.update(bench.host())
        for m in missing:
            print(f"missing per-layer metric: {m}")
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.json.gz")
    for f in bench.check_fails:
        print(f"check failed: {f}")
    print(json.dumps({
        "correct": not bench.check_fails,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
