"""Benchmark for uwloc: sweep throughput, single-fix latency, bound throughput.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_sigma --seed 1 --seconds 10 --trace 0

Workloads (one client, closed loop, one process, BLAS pinned to one thread):

  sweep_sigma    ``uwloc simulate`` in-process on the bundled 10-anchor 3-D
                 network over sigma {1,3,5,7,9} dB, joint power.
  locate_stream  independent single fixes on random geometries, each
                 link_weights -> build_system -> solve; every other fix uses
                 the known-power pair.
  bounds_grid    fim_unknown_power and fim_known_power over the same random
                 geometries times a sigma grid.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics,
derived from spans recorded around the program's public functions.  A
failed output check makes the exit code nonzero.
"""

import os

# Pin BLAS before numpy loads: every workload is single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep_sigma", "locate_stream", "bounds_grid")

# Trials per sigma point in one simulate call, and setup's tiny sweep.  A
# call (one timed block) of 100 trials lasts about 0.3 s, short enough for
# the speed gauge around it to follow the machine's speed changes; 250-trial
# calls spread twice as much across runs.
SWEEP_MC_TRIALS = 20
SETUP_MC_TRIALS = 1
# Random geometries drawn per run for the stream and the bound grid.
STREAM_POOL = 1200
BOUNDS_GEOMETRIES = 120
# Operations per timed block on the stream and the grid.  The speed gauge
# runs between blocks, so a block should be long against its ~3 ms.
STREAM_BLOCK = 64
BOUNDS_BLOCK = 512
SETUP_REPEATS = 15

# Output checks.  The KKT tolerances are the solver acceptance criterion's.
KKT_STATIONARITY_TOL = 1e-8
KKT_MIN_EIG_TOL = 1e-8
BOUND_ORDER_RTOL = 1e-9
# Normalized Gram floor a random instance's design must reach to be kept,
# the test suite's headroom over the program's rank gate.
GRAM_HEADROOM = 1e-7

LAYERS = (
    "config", "channel", "weighting", "gtrs.build", "gtrs.solve",
    "crlb", "numerics", "experiments", "cli",
)
FAILURE_CLASSES = (
    "ConfigError", "ConvergenceError", "GeometryError", "InfeasibleProblemError",
    "NumericalError", "SingularMatrixError", "UwlocError",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "solved_frac": "frac",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


# ---------------------------------------------------------------- program


def load_program():
    """Import a fresh copy of the uwloc package from this checkout.

    Earlier copies are dropped from ``sys.modules`` first, so each call pays
    the package's full import; numpy stays loaded.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "uwloc" or m.startswith("uwloc.")]:
        del sys.modules[name]
    import uwloc.cli

    if SRC not in Path(uwloc.__file__).resolve().parents:
        raise BenchError(f"imported uwloc from {uwloc.__file__}, not from {SRC}")
    mods = sys.modules
    return SimpleNamespace(
        uwloc=mods["uwloc"],
        cli=mods["uwloc.cli"],
        config=mods["uwloc.config"],
        channel=mods["uwloc.channel"],
        weighting=mods["uwloc.weighting"],
        gtrs=mods["uwloc.gtrs"],
        crlb=mods["uwloc.crlb"],
        numerics=mods["uwloc.numerics"],
        experiments=mods["uwloc.experiments"],
        errors=mods["uwloc.errors"],
    )


def environment_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


def install_tracer(tracer, prog, on_trial=None):
    """Wrap the public functions each layer exposes to its callers.

    Names are patched where the pipeline looks them up: the harness calls
    ``trial_rng`` and ``generate_measurements`` as globals of
    ``uwloc.experiments`` and the CLI calls ``parse_scenario`` as a global
    of ``uwloc.cli``.
    """
    w = tracer.wrap
    w(prog.cli, "main", "cli")
    w(prog.cli, "parse_scenario", "config")
    w(prog.experiments, "run_sweep", "experiments")
    w(prog.experiments, "trial_rng", "experiments", before=on_trial)
    w(prog.experiments, "generate_measurements", "channel")
    w(prog.weighting, "link_weights", "weighting")
    w(prog.gtrs, "build_system", "gtrs.build")
    w(prog.gtrs, "build_known_power_system", "gtrs.build")
    record = lambda est: tracer.iterations.append(est.iterations)  # noqa: E731
    w(prog.gtrs, "solve", "gtrs.solve", after=record)
    w(prog.gtrs, "solve_known_power", "gtrs.solve", after=record)
    w(prog.crlb, "fim_unknown_power", "crlb")
    w(prog.crlb, "fim_known_power", "crlb")
    for name in ("sym_eig", "solve_spd", "inv_sqrt_sym"):
        w(prog.numerics, name, "numerics")


# ---------------------------------------------------------------- results


@dataclass
class Outcome:
    """What the timed blocks of one workload produced."""

    block_rates: list = field(default_factory=list)  # work units per second
    traced_rates: list = field(default_factory=list)
    traced_wall: float = 0.0
    latencies: dict = field(default_factory=dict)  # input key -> seconds per repeat
    solved: dict = field(default_factory=dict)  # input key -> (units solved, units)
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)  # class -> op ids
    problems: list = field(default_factory=list)  # failed output checks
    notes: list = field(default_factory=list)
    pending: list = field(default_factory=list)  # (key, seconds) of the open block

    def success(self, key, seconds, units=1, lost=0):
        self.attempted += 1
        self.pending.append((key, seconds))
        self.solved.setdefault(key, (units - lost, units))

    def close_block(self, slowdown):
        """Keep the open block's latencies, rescaled to the reference speed."""
        for key, seconds in self.pending:
            self.latencies.setdefault(key, []).append(seconds / slowdown)
        self.pending.clear()

    def failure(self, key, op, error_class):
        """Count a failed operation; list it on the input's first attempt."""
        self.attempted += 1
        self.failed += 1
        if key not in self.solved:
            self.solved[key] = (0, 1)
            self.list_failure(error_class, op)

    def list_failure(self, error_class, op):
        ops = self.failures.setdefault(error_class, [])
        if op not in ops:
            ops.append(op)


def quiet_call(fn, *args):
    """Run ``fn`` with its stdout/stderr captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        result = fn(*args)
    return result, buf.getvalue()


def timed_setup(first_op):
    """Set-up time (import + parse + first operation) and parse time.

    Both are medians over SETUP_REPEATS set-ups, each rescaled to the
    reference machine speed.
    """
    totals, parses = [], []
    prog = None
    gauge = speed.Gauge()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prog = load_program()
        parse_s = first_op(prog)
        total_s = time.perf_counter() - start
        slowdown = gauge.block_slowdown()
        totals.append(total_s / slowdown)
        parses.append(parse_s / slowdown)
    return prog, statistics.median(totals), statistics.median(parses)


def timed_parse(prog, path):
    start = time.perf_counter()
    config = prog.config.parse_scenario(path)
    return config, time.perf_counter() - start


class Workload:
    """Defaults for the hooks a workload may leave out."""

    on_trial = None  # called with trial_rng's arguments in traced blocks

    def check(self, outcome):
        """Output checks that need the whole run."""

    def list_failures(self, outcome):
        """Attribute failures the timed blocks could not see."""


# ---------------------------------------------------------------- sweep_sigma


class SweepSigma(Workload):
    """Closed loop of in-process ``uwloc simulate`` calls on one config."""

    def __init__(self, seed, work):
        bundled = json.loads((SRC / "uwloc" / "data" / "default_scenario.json").read_text())
        self.scenario = work / "scenario.json"
        self.scenario.write_bytes(inputs.sweep_scenario_bytes(bundled, seed, SWEEP_MC_TRIALS))
        self.setup_scenario = work / "setup_scenario.json"
        self.setup_scenario.write_bytes(inputs.sweep_scenario_bytes(bundled, seed, SETUP_MC_TRIALS))
        self.csv = work / "out.csv"
        self.argv = ["simulate", "--config", str(self.scenario), "--out", str(self.csv), "--threads", "1"]
        self.trials_per_call = SWEEP_MC_TRIALS * len(inputs.SWEEP_SIGMA_GRID_DB)
        self.reference_csv = None
        self.calls = 0
        self.point = -1

    def first_op(self, prog):
        _, parse_s = timed_parse(prog, self.setup_scenario)
        argv = ["simulate", "--config", str(self.setup_scenario), "--out", str(self.csv)]
        code, text = quiet_call(prog.cli.main, argv)
        if code != 0:
            raise BenchError(f"setup simulate exited {code}: {text.strip()}")
        return parse_s

    def prepare(self, prog, outcome):
        self.prog = prog
        self.records = []
        real = prog.experiments.run_sweep

        def capture(*args, **kwargs):
            result = real(*args, **kwargs)
            self.records.append(result)
            return result

        # One wrapper per simulate call: it keeps the per-point failure
        # counts, which the CSV does not carry.
        prog.experiments.run_sweep = capture

    def on_trial(self, args):
        trial = args[1]
        if trial == 0:
            self.point += 1
        self.tracer.op = f"call{self.calls}/point{self.point}/trial{trial}"

    def block(self, outcome, tracer):
        self.tracer = tracer
        self.point = -1
        start = time.perf_counter()
        code, text = quiet_call(self.prog.cli.main, self.argv)
        wall = time.perf_counter() - start
        self.calls += 1
        if code != 0:
            outcome.attempted += 1
            outcome.failed += 1
            outcome.problems.append(f"simulate exited {code}: {text.strip()}")
            return 0, wall
        lost = sum(r.solve_failures for r in self.records[-1])
        outcome.success("call", wall, units=self.trials_per_call, lost=lost)
        data = self.csv.read_bytes()
        if self.reference_csv is None:
            self.reference_csv = data
        elif data != self.reference_csv:
            outcome.problems.append(f"simulate call {self.calls - 1}: CSV differs from call 0")
        return self.trials_per_call, wall

    def enough(self, outcome):
        return outcome.attempted - outcome.failed >= 2

    def check(self, outcome):
        if self.reference_csv is None:
            outcome.problems.append("no simulate call succeeded")
            return
        lines = self.reference_csv.decode("utf-8").splitlines()
        header = ",".join(self.prog.experiments.CSV_COLUMNS)
        if not lines or lines[0] != header:
            outcome.problems.append("CSV header differs from the documented columns")
            return
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(inputs.SWEEP_SIGMA_GRID_DB):
            outcome.problems.append(f"CSV has {len(rows)} rows, expected {len(inputs.SWEEP_SIGMA_GRID_DB)}")
            return
        ratios_t, ratios_p = [], []
        for row in rows:
            nrmse_t, nrmse_p, crlb_t, crlb_p = (float(x) if x else math.nan for x in row[1:5])
            if int(row[6]) != SWEEP_MC_TRIALS:
                outcome.problems.append(f"{row[0]}: {row[6]} trials, expected {SWEEP_MC_TRIALS}")
            if not all(math.isfinite(x) and x > 0 for x in (nrmse_t, nrmse_p, crlb_t, crlb_p)):
                outcome.problems.append(f"{row[0]}: non-finite or nonpositive error or bound")
                continue
            ratios_t.append(nrmse_t / crlb_t)
            ratios_p.append(nrmse_p / crlb_p)
        if ratios_t:
            outcome.notes.append(f"nrmse_t_rel_crlb = {statistics.fmean(ratios_t):.6g} (mean over points, call 0)")
            outcome.notes.append(f"nrmse_p_rel_crlb = {statistics.fmean(ratios_p):.6g} (mean over points, call 0)")

    def list_failures(self, outcome):
        """Attribute dropped trials to exception classes and trial indices.

        The timed calls carry no instrumentation, so when a call dropped
        trials the same call is replayed once under the tracer.
        """
        if not outcome.solved or outcome.failures or all(ok == n for ok, n in outcome.solved.values()):
            return
        tracer = spans.Tracer()
        self.tracer, self.point, self.calls = tracer, -1, 0
        install_tracer(tracer, self.prog, on_trial=self.on_trial)
        try:
            quiet_call(self.prog.cli.main, self.argv)
        finally:
            tracer.uninstall()
        _, _, failures = spans.summarize(tracer.spans)
        for cls, ops in failures.items():
            for op in ops:
                outcome.list_failure(cls, op)


# ---------------------------------------------------------------- shared geometry


def normalized_gram_floor(design):
    """Smallest eigenvalue of the column-normalized Gram matrix."""
    normalized = design / np.linalg.norm(design, axis=0)
    return float(np.linalg.eigvalsh(normalized.T @ normalized).min())


def build_cases(prog, seed, count, outcome):
    """Program objects for the seed's well-posed random instances.

    Instances are kept as the test suite's ``random_solver_instance`` keeps
    them: Scenario validation must accept the geometry, and the weighted
    joint-power design must pass the rank gate with GRAM_HEADROOM to spare.
    The known-power design is a column subset of the joint one, so its
    normalized Gram floor is at least as high.  Nothing is filtered on
    whether the solver handles an instance.  The filter runs before timing.
    """
    cases = []
    rejected = ill_posed = 0
    for index, inst in enumerate(inputs.random_instances(seed, count)):
        env = prog.channel.Environment(
            ple=inst.ple, frequency_khz=inst.frequency_khz,
            transmit_power_dbm=inst.transmit_power_dbm,
        )
        try:
            scenario = prog.channel.Scenario(inst.anchors_m, inst.target_m, env)
        except prog.errors.GeometryError:
            rejected += 1
            continue
        rss = prog.channel.noiseless_rss(inst.target_m, inst.anchors_m, env) + inst.sigma_db * inst.unit_noise
        measurements = prog.channel.MeasurementSet(np.arange(len(rss)), rss, env)
        weights = prog.weighting.link_weights(measurements, env)
        try:
            system = prog.gtrs.build_system(measurements, weights, scenario.anchors_m, env)
        except prog.errors.GeometryError:
            ill_posed += 1
            continue
        if normalized_gram_floor(system.design) < GRAM_HEADROOM:
            ill_posed += 1
            continue
        cases.append(SimpleNamespace(index=index, inst=inst, env=env, scenario=scenario,
                                     measurements=measurements, known=index % 2 == 1))
    outcome.notes.append(
        f"{len(cases)} of {count} random geometries kept; {rejected} rejected by Scenario validation,"
        f" {ill_posed} with a design below the rank headroom"
    )
    return cases


def fix(prog, case):
    """One single fix, calling each stage as the CLI's locate path does."""
    w = prog.weighting.link_weights(case.measurements, case.env)
    if case.known:
        system = prog.gtrs.build_known_power_system(case.measurements, w, case.scenario.anchors_m, case.env)
        return prog.gtrs.solve_known_power(system)
    system = prog.gtrs.build_system(case.measurements, w, case.scenario.anchors_m, case.env)
    return prog.gtrs.solve(system)


def first_instance_op(seed, work, op):
    """Setup for the random-geometry workloads: parse instance 0, run ``op``."""
    inst = inputs.random_instances(seed, 1)[0]
    path = work / "instance0.json"
    path.write_bytes(inputs.instance_scenario_bytes(inst))

    def first_op(prog):
        start = time.perf_counter()
        try:
            config = prog.config.parse_scenario(path)
        except prog.errors.GeometryError:
            return time.perf_counter() - start  # rejected like any other input
        parse_s = time.perf_counter() - start
        try:
            op(prog, config, inst)
        except prog.errors.UwlocError:
            pass  # a failed first operation still counts toward set-up
        return parse_s

    return first_op


# ---------------------------------------------------------------- locate_stream


class LocateStream(Workload):
    """Closed loop of independent single fixes, cycling over a random pool."""

    def __init__(self, seed, work):
        self.seed = seed
        self.first_op = first_instance_op(seed, work, self._first_fix)
        self.next = 0
        self.results = {}

    @staticmethod
    def _first_fix(prog, config, inst):
        env = config.scenario.environment
        rss = prog.channel.noiseless_rss(inst.target_m, inst.anchors_m, env) + inst.sigma_db * inst.unit_noise
        case = SimpleNamespace(
            env=env, scenario=config.scenario, known=False,
            measurements=prog.channel.MeasurementSet(np.arange(len(rss)), rss, env),
        )
        fix(prog, case)

    def prepare(self, prog, outcome):
        self.prog = prog
        self.cases = build_cases(prog, self.seed, STREAM_POOL, outcome)
        if not self.cases:
            raise BenchError("no valid geometry in the stream")

    def block(self, outcome, tracer):
        prog, cases, uwloc_error = self.prog, self.cases, self.prog.errors.UwlocError
        clock = time.perf_counter
        done = 0
        start = clock()
        for _ in range(STREAM_BLOCK):
            case = cases[self.next % len(cases)]
            self.next += 1
            if tracer is not None:
                tracer.op = f"fix{case.index}"
            t0 = clock()
            try:
                estimate = fix(prog, case)
            except uwloc_error as exc:
                outcome.failure(case.index, f"fix{case.index}", type(exc).__name__)
                continue
            outcome.success(case.index, clock() - t0)
            done += 1
            self.check_estimate(outcome, case, estimate)
        return done, clock() - start

    def check_estimate(self, outcome, case, est):
        seen = self.results.get(case.index)
        if seen is None:
            self.results[case.index] = est
            problems = []
            if not np.all(np.isfinite(est.position_m)):
                problems.append("non-finite position")
            if not est.kkt_min_eig_ratio >= -KKT_MIN_EIG_TOL:
                problems.append(f"kkt_min_eig_ratio {est.kkt_min_eig_ratio:.3e}")
            if not est.kkt_stationarity <= KKT_STATIONARITY_TOL:
                problems.append(f"kkt_stationarity {est.kkt_stationarity:.3e}")
            if est.power_valid and not math.isfinite(est.transmit_power_dbm):
                problems.append("non-finite power")
            if problems:
                outcome.problems.append(f"fix{case.index}: " + ", ".join(problems))
        elif not np.array_equal(seen.z, est.z):
            outcome.problems.append(f"fix{case.index}: repeated solve gave a different estimate")

    def enough(self, outcome):
        return self.next >= len(self.cases)


# ---------------------------------------------------------------- bounds_grid


class BoundsGrid(Workload):
    """Closed loop of Fisher bounds over random geometries times sigma."""

    def __init__(self, seed, work):
        self.seed = seed
        self.first_op = first_instance_op(
            seed, work, lambda prog, config, inst: prog.crlb.fim_unknown_power(config.scenario, inst.sigma_db)
        )
        self.next = 0
        self.results = {}

    def prepare(self, prog, outcome):
        self.prog = prog
        cases = build_cases(prog, self.seed, BOUNDS_GEOMETRIES, outcome)
        self.ops = [
            (case, sigma, known)
            for case in cases
            for sigma in inputs.BOUNDS_SIGMA_GRID_DB
            for known in (False, True)
        ]
        if not self.ops:
            raise BenchError("no valid geometry in the bound grid")

    def block(self, outcome, tracer):
        crlb, ops, uwloc_error = self.prog.crlb, self.ops, self.prog.errors.UwlocError
        clock = time.perf_counter
        done = 0
        start = clock()
        for _ in range(BOUNDS_BLOCK):
            i = self.next % len(ops)
            case, sigma, known = ops[i]
            self.next += 1
            op = f"geometry{case.index}/sigma{sigma:g}/{'known' if known else 'unknown'}"
            if tracer is not None:
                tracer.op = op
            t0 = clock()
            try:
                if known:
                    report = crlb.fim_known_power(case.scenario, sigma)
                else:
                    report = crlb.fim_unknown_power(case.scenario, sigma)
            except uwloc_error as exc:
                outcome.failure(i, op, type(exc).__name__)
                continue
            outcome.success(i, clock() - t0)
            done += 1
            self.results.setdefault(i, report)
        return done, clock() - start

    def enough(self, outcome):
        return self.next >= len(self.ops)

    def check(self, outcome):
        for i in range(0, len(self.ops), 2):
            unknown, known = self.results.get(i), self.results.get(i + 1)
            case, sigma, _ = self.ops[i]
            name = f"geometry{case.index}/sigma{sigma:g}"
            if unknown is None or known is None:
                continue  # a failed bound is already counted and listed
            values = (unknown.crlb_t_m, unknown.crlb_p_db, known.crlb_t_m)
            if not all(math.isfinite(v) and v > 0 for v in values):
                outcome.problems.append(f"{name}: non-finite or nonpositive bound")
            elif known.crlb_t_m > unknown.crlb_t_m * (1.0 + BOUND_ORDER_RTOL):
                outcome.problems.append(
                    f"{name}: known-power CRLB_t {known.crlb_t_m:.9g} exceeds unknown-power {unknown.crlb_t_m:.9g}"
                )


# ---------------------------------------------------------------- driver


def run_blocks(workload, outcome, seconds, traced, prog):
    """Run timed blocks until ``seconds`` pass and the workload has had enough.

    In a traced run, blocks alternate between traced and untraced so the
    two are measured under the same machine conditions.
    """
    tracer = spans.Tracer() if traced else None
    gauge = speed.Gauge()
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline or not workload.enough(outcome) or (traced and n < 2):
        trace_this = traced and n % 2 == 1
        if trace_this:
            install_tracer(tracer, prog, on_trial=workload.on_trial)
        try:
            work, wall = workload.block(outcome, tracer if trace_this else None)
        finally:
            if trace_this:
                tracer.uninstall()
        slowdown = gauge.block_slowdown()
        outcome.close_block(slowdown)
        rate = work / wall * slowdown if wall > 0 else math.nan
        if trace_this:
            outcome.traced_wall += wall
            outcome.traced_rates.append(rate)
        else:
            outcome.block_rates.append(rate)
        n += 1
    outcome.notes.append(f"median machine slowdown = {statistics.median(gauge.slowdowns):.6g}")
    return tracer


def end_to_end_metrics(outcome, setup_s):
    """End-to-end metrics, from latencies rescaled to the reference speed.

    Each distinct input gets one latency, the median over its repeats in
    this run: the percentiles then describe how cost varies across inputs,
    and ``work_per_s`` is the work of all solved inputs over the sum of
    their latencies.  Failed inputs have neither.
    """
    per_input = {key: statistics.median(v) for key, v in outcome.latencies.items()}
    lat_ms = np.array(list(per_input.values())) * 1e3
    work = sum(outcome.solved[key][0] for key in per_input)
    units = sum(n for _, n in outcome.solved.values())
    return {
        "setup_s": setup_s,
        "work_per_s": work / sum(per_input.values()),
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p99_ms": float(np.percentile(lat_ms, 99)),
        "solved_frac": sum(ok for ok, _ in outcome.solved.values()) / units,
    }


def per_layer_metrics(outcome, tracer, parse_s):
    layer_self, layer_calls, failures = spans.summarize(tracer.spans)
    for cls, ops in failures.items():
        for op in ops:
            outcome.list_failure(cls, op)
    wall = outcome.traced_wall
    metrics = {}
    for layer in LAYERS:
        calls = layer_calls.get(layer, 0)
        own = layer_self.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.us_per_call"] = own / calls * 1e6 if calls else 0.0
        metrics[f"{layer}.self_frac"] = own / wall if wall > 0 else 0.0
    covered = sum(layer_self.values())
    metrics["perfbench.self_frac"] = (wall - covered) / wall if wall > 0 else 0.0
    iterations = tracer.iterations
    metrics["gtrs.iterations_p50"] = float(np.median(iterations)) if iterations else 0.0
    metrics["gtrs.iterations_max"] = max(iterations) if iterations else 0
    trials = sum(1 for s in tracer.spans if s.name == "experiments.trial_rng")
    metrics["channel.us_per_trial"] = layer_self.get("channel", 0.0) / trials * 1e6 if trials else 0.0
    metrics["experiments.self_us_per_trial"] = layer_self.get("experiments", 0.0) / trials * 1e6 if trials else 0.0
    bounds = layer_calls.get("crlb", 0)
    from_bounds = sum(
        1 for s in tracer.spans
        if s.layer == "numerics" and s.parent is not None and tracer.spans[s.parent].layer == "crlb"
    )
    metrics["numerics.calls_per_bound"] = from_bounds / bounds if bounds else 0.0
    metrics["config.parse_ms"] = parse_s * 1e3
    counts = {cls: len(set(ops)) for cls, ops in failures.items()}
    for cls in FAILURE_CLASSES[:-1]:
        metrics[f"failures.{cls}"] = counts.pop(cls, 0)
    metrics["failures.UwlocError"] = sum(counts.values())
    untraced = statistics.median(outcome.block_rates)
    traced = statistics.median(outcome.traced_rates)
    metrics["tracing_overhead_frac"] = untraced / traced - 1.0
    return metrics


def per_layer_units(name):
    if name.endswith(".calls") or name.startswith("failures.") or "iterations" in name:
        return "count"
    if name.endswith("_frac") or name.endswith("calls_per_bound"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    return "us"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "uwloc" / "__init__.py").is_file():
        raise BenchError(f"no uwloc package under {SRC}")
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    cls = {"sweep_sigma": SweepSigma, "locate_stream": LocateStream, "bounds_grid": BoundsGrid}[args.workload]
    workload = cls(args.seed, work)
    env = environment_record()
    print("env " + json.dumps(env, sort_keys=True))

    outcome = Outcome()
    prog, setup_s, parse_s = timed_setup(workload.first_op)
    workload.prepare(prog, outcome)
    tracer = run_blocks(workload, outcome, args.seconds, args.trace == 1, prog)
    workload.check(outcome)

    if args.trace:
        metrics = per_layer_metrics(outcome, tracer, parse_s)
        units = {name: per_layer_units(name) for name in metrics}
        trace_path = OUT / f"trace_{args.workload}.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "fields": list(spans.Span._fields), "spans": tracer.to_records()}, handle)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        workload.list_failures(outcome)
        metrics = end_to_end_metrics(outcome, setup_s)
        units = END_TO_END_UNITS

    print(f"workload {args.workload} seed {args.seed}: {outcome.attempted} operations,"
          f" {outcome.failed} failed, {len(outcome.block_rates) + len(outcome.traced_rates)} blocks")
    for note in outcome.notes:
        print(f"info {note}")
    for cls_name, ops in sorted(outcome.failures.items()):
        print(f"failures {cls_name}: {len(ops)} at {', '.join(ops[:20])}{' ...' if len(ops) > 20 else ''}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for problem in outcome.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    correct = not outcome.problems
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
