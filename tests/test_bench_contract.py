"""What the benchmark in perfbench/ reads from the program.

The per-layer metrics of `perfbench/run.py` are sums over spans of named
hyperns functions, and a metric whose function is gone is reported
missing.  This runs a short `hyperns run` under the benchmark's own tracer
and checks that every function those metrics name is still wrapped, that
the CFL check runs once inside every step, and that the written snapshot
passes the benchmark's own check.  A tiny traced eps sweep, called as the
`sweep-eps` workload calls it, checks the spans of the study metrics.
"""
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import spans  # noqa: E402
from hyperns import cli, experiments  # noqa: E402
from hyperns.config import parse_config  # noqa: E402

STEPS = 3
CONFIG = f"""\
nu = 1e-2
eps = 1e-3
symbol = power
alpha = 1.25
n = 16
dim = 2
dt = 1e-3
t_end = {STEPS}e-3
ic = random
seed = 2
output_every = 1
"""

# the span names that run.py's per_layer reads, besides a symbol builder
READ_SPANS = spans.FFT_SPANS + (
    "lattice.leray_project", "lattice.dealias",
    "lattice.SpectralVelocity.__post_init__", "dynamics.nonlinear_term",
    spans.STEP_SPAN, "dynamics.Stepper.cfl", "diagnostics.make_record",
    "diagnostics.defect_split", "dynamics.run", "lattice.sobolev_norm",
    "experiments.spectral_tail_fraction", "snapshot.read_snapshot",
    "snapshot.write_snapshot", "cli.write_csv", "config.parse_config")


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """(tracer, run directory) of a traced 3-step 2-D n=16 run."""
    tmp = tmp_path_factory.mktemp("contract")
    cfg = tmp / "run.cfg"
    cfg.write_text(CONFIG)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        code = cli.main(["run", str(cfg), "--out", str(tmp / "out")])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert code == 0
    run_dir, = (p for p in (tmp / "out").iterdir() if p.is_dir())
    return tracer, run_dir


def test_every_span_the_metrics_read_is_wrapped(traced_run):
    tracer, _ = traced_run
    missing = sorted(set(READ_SPANS) - tracer.names)
    assert not missing
    assert any(n.startswith("symbols.") and n.endswith("_symbol")
               for n in tracer.names)


def test_cfl_runs_once_inside_every_step(traced_run):
    tracer, _ = traced_run
    totals = tracer.totals()
    assert totals[spans.STEP_SPAN]["count"] == STEPS
    assert totals["dynamics.Stepper.cfl"]["count"] == STEPS
    assert (tracer.parent_labels("dynamics.Stepper.cfl")
            == [spans.STEP_SPAN] * STEPS)


def test_step_transforms_run_through_the_lattice(traced_run):
    # one inverse and one forward transform per IF-RK4 stage
    tracer, _ = traced_run
    totals = tracer.totals()
    for name in spans.FFT_SPANS:
        assert totals[name]["step_count"] == 4 * STEPS
        assert totals[name]["step_points"] > 0


def test_snapshot_passes_the_benchmark_check(traced_run):
    _, run_dir = traced_run
    assert checks.snapshot_invariants(run_dir / "final.hypf") == []


class Stop(BaseException):
    """Like the benchmark's SetupDone: raised from a sink to end a command."""


def test_base_exception_ends_run_and_finalizes_manifest(tmp_path,
                                                        monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    stop = Stop()

    def stopped(*args, **kwargs):
        raise stop

    monkeypatch.setattr(cli, "run", stopped)
    with pytest.raises(Stop) as err:
        cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert err.value is stop
    run_dir, = (tmp_path / "out").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["finalized"] and manifest["files"] == []
    assert manifest["failure"]["exception"] == "Stop"


def test_traced_sweep_records_the_study_spans():
    # the call of the sweep-eps workload, on a 2-D n=32 lattice for 0.02
    cfg = parse_config(CONFIG.replace("n = 16", "n = 32")
                       + "k_c = 1.5\namplitude = 0.5\n")
    eps = [1e-2, 3e-3, 1e-3, 1e-4]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        res = experiments.vanishing_eps_sweep(cfg, eps, s=3.0, T=0.02,
                                              max_workers=1)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert res.values.tolist() == eps[::-1]
    totals = tracer.totals()
    # each trajectory goes through the probed run, from one shared start
    assert totals["dynamics.run"]["count"] == 1 + len(eps)
    assert totals["dynamics.initial_condition"]["count"] == 1
    samples = 1 + 20   # output_every = 1 over 20 steps of dt = 1e-3
    assert totals["experiments.spectral_tail_fraction"]["count"] == samples
    assert totals["lattice.sobolev_norm"]["count"] == len(eps) * samples
