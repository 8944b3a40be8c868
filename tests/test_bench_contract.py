"""What the benchmark in perfbench/ needs from the program.

perfbench/run.py wraps the program's public functions by name, and counts
one sweep trial per ``experiments.trial_rng`` span: its per-trial metrics
and ``SweepSigma.list_failures`` rest on both.  These tests run its own
loader and tracer, so a change that renames a wrapped function or stops
calling ``trial_rng`` once per trial fails here, not in a benchmark run.
"""

import importlib
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _uwloc_modules():
    return {name: module for name, module in sys.modules.items() if name.split(".")[0] == "uwloc"}


@pytest.fixture()
def bench(monkeypatch):
    """perfbench/run.py and a fresh copy of the program loaded by it.

    Loading re-imports uwloc, so the suite's copy of its modules is put
    back afterwards; importing run.py pins BLAS variables, which are
    restored too.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    with mock.patch.dict(os.environ):
        run = importlib.import_module("run")
    saved = _uwloc_modules()
    try:
        yield run, run.load_program()
    finally:
        for name in _uwloc_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_traced_name_resolves_and_is_restored(bench):
    run, prog = bench
    tracer = run.spans.Tracer()
    run.install_tracer(tracer, prog)  # an AttributeError here names a lost function
    patched = list(tracer._patched)
    wrapped = {f"{module.__name__}.{attr}" for module, attr, _ in patched}
    assert {
        "uwloc.experiments.trial_rng",
        "uwloc.experiments.generate_measurements",
        "uwloc.weighting.link_weights",
        "uwloc.gtrs.build_system",
        "uwloc.gtrs.solve_known_power",
        "uwloc.numerics.solve_spd",
    } <= wrapped
    assert all(getattr(module, attr) is not original for module, attr, original in patched)
    tracer.uninstall()
    assert all(getattr(module, attr) is original for module, attr, original in patched)


def test_traced_sweep_records_one_trial_rng_span_per_trial(bench, tmp_path):
    run, prog = bench
    sweep = run.SweepSigma(1, tmp_path)
    sweep.tracer = tracer = run.spans.Tracer()
    run.install_tracer(tracer, prog, on_trial=sweep.on_trial)
    try:
        code, text = run.quiet_call(prog.cli.main, sweep.argv)
    finally:
        tracer.uninstall()
    assert code == 0, text
    ops = [span.op for span in tracer.spans if span.name == "experiments.trial_rng"]
    points, trials = len(run.inputs.SWEEP_SIGMA_GRID_DB), run.SWEEP_MC_TRIALS
    assert len(ops) == sweep.trials_per_call == points * trials
    assert sorted(ops) == sorted(
        f"call0/point{point}/trial{trial}" for point in range(points) for trial in range(trials)
    )
