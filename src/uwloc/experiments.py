"""Deterministic Monte Carlo harness.

Every trial draws its noise from a dedicated generator seeded by
``SeedSequence(master_seed, spawn_key=(trial_index,))``, so results are
independent of execution order and batch size, and trials with the same
index share their underlying draws across sweep coordinates (common random
numbers, which makes fixed-seed trend comparisons sharp).  A sweep builds
each trial's sequence once and seeds a new generator from it at each
coordinate.  A group of coordinates stays one stack from build to record
(a ``gtrs._Stack`` solved into a ``gtrs._Solved``), and each coordinate's
record reduces its slice of those arrays: no per-trial object is made.

Accuracy is summarized per sweep coordinate as

    NRMSE_t = sqrt((1/M) * sum_m ||t - t_hat_m||^2)

and analogously for the transmit power over the trials whose power
estimate exists (a nonpositive auxiliary variable has no dB read-out);
the count of such failures is published alongside.
"""

import functools
import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from . import crlb, gtrs, weighting
from .channel import NOISE_KINDS, Environment, MeasurementSet, NoiseModel, Scenario
from .channel import absorption_coefficient, generate_measurements, noiseless_rss, sample_noise
from .errors import ConfigError, UwlocError

SWEEP_KINDS = ("sigma", "anchor_count", "ple", "frequency", "noise_scenarios", "sensitivity")

# (label, ple bias fraction, absorption bias fraction) applied to the
# solver's assumed parameters while measurements use the true values.
DEFAULT_BIAS_SCENARIOS = (
    ("unbiased", 0.0, 0.0),
    ("ple_5pct", 0.05, 0.0),
    ("absorption_5pct", 0.0, 0.05),
    ("ple_10pct_absorption_5pct", 0.10, 0.05),
    ("absorption_10pct_ple_5pct", 0.05, 0.10),
    ("ple_10pct_absorption_10pct", 0.10, 0.10),
)

# Most trials one stacked solve takes: a sweep's coordinates are batched in
# order while a batch stays within it, so small coordinates share one lockstep
# solve and a bundled 3000-trial coordinate is solved alone.  It also bounds
# trial_rng's memo of seed sequences outside a sweep.
SWEEP_BATCH_TRIALS = 4096

DEFAULT_PLE_GRID = (1.5, 1.75, 2.0, 2.25, 2.5)
DEFAULT_FREQUENCY_GRID_KHZ = (9.0, 25.0, 50.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario, noise, solver options, and sweep selection for one run.

    Construction (``dataclasses.replace`` included) raises ConfigError for
    a value that would break a run, so no trial starts on a bad config.
    """

    scenario: Scenario
    noise: NoiseModel
    sigma_grid_db: tuple = (1.0, 3.0, 5.0, 7.0, 9.0)
    mc_trials: int = 3000
    master_seed: int = 1
    weighted: bool = True
    known_power: bool = False
    sweep_kind: str = "sigma"
    sweep_sigma_db: float = 2.0
    anchor_counts: tuple | None = None
    ple_grid: tuple = DEFAULT_PLE_GRID
    frequency_grid_khz: tuple = DEFAULT_FREQUENCY_GRID_KHZ
    noise_kinds: tuple = ("zero_mean_gaussian", "biased_gaussian", "gaussian_plus_impulsive")
    bias_scenarios: tuple = DEFAULT_BIAS_SCENARIOS

    def __post_init__(self):
        if self.mc_trials < 1:
            raise ConfigError(f"mc_trials must be >= 1, got {self.mc_trials}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if len(self.sigma_grid_db) == 0 or any(s <= 0 for s in self.sigma_grid_db):
            raise ConfigError("sigma_grid_db entries must be positive")
        if self.sweep_kind not in SWEEP_KINDS:
            raise ConfigError(f"unknown sweep kind {self.sweep_kind!r}; expected one of {SWEEP_KINDS}")
        if self.sweep_sigma_db <= 0:
            raise ConfigError("sweep_sigma_db must be positive")
        n = self.scenario.n_anchors
        k = self.scenario.dimension
        for name in ("anchor_counts", "ple_grid", "frequency_grid_khz", "noise_kinds", "bias_scenarios"):
            values = getattr(self, name)
            if values is not None and len(values) == 0:
                raise ConfigError(f"{name} must not be empty")
        if self.anchor_counts is not None:
            for count in self.anchor_counts:
                if not k + 2 <= count <= n:
                    raise ConfigError(
                        f"anchor count {count} outside the valid range [{k + 2}, {n}]"
                    )
        if any(b <= 0 for b in self.ple_grid):
            raise ConfigError("ple_grid entries must be positive")
        if any(f <= 0 for f in self.frequency_grid_khz):
            raise ConfigError("frequency_grid_khz entries must be positive")
        for f in self.frequency_grid_khz:
            try:
                absorption_coefficient(f)
            except ValueError as exc:
                raise ConfigError(f"frequency_grid_khz entry {f!r}: {exc}") from None
        for kind in self.noise_kinds:
            if kind not in NOISE_KINDS:
                raise ConfigError(f"noise_kinds entry {kind!r} is not one of {NOISE_KINDS}")
        for label, ple_bias, absorption_bias in self.bias_scenarios:
            if not (ple_bias > -1.0 and absorption_bias > -1.0):
                raise ConfigError(
                    f"bias_scenarios entry {label!r}: bias fractions must be > -1"
                )


@dataclass(frozen=True)
class ResultRecord:
    """Aggregated outcome for one sweep coordinate.

    ``solve_failures`` counts trials whose solve raised (excluded from the
    error averages), and ``failures`` lists them as (exception class name,
    trial indices, message of the first) triples; neither is part of the
    CSV contract.  They are not always empty: on the bundled sigma sweep,
    trial 210 at sigma=7 and trials 210, 2255 and 2474 at sigma=9 fail the
    build's rank gate with ``GeometryError``, so those NRMSEs
    average 2999 and 2997 trials.  ``seconds_per_solve`` is the wall time
    of the batch the coordinate was solved in (see :func:`run_sweep`),
    building included, divided by that batch's trials.
    """

    sweep_coord: str
    nrmse_t_m: float
    nrmse_p_db: float | None
    crlb_t_m: float
    crlb_p_db: float | None
    power_failures: int
    trials: int
    seconds_per_solve: float
    solve_failures: int = 0
    failures: tuple = ()


@dataclass(frozen=True)
class _TrialSetting:
    """Inputs that vary between sweep coordinates (solver options do not)."""

    label: str
    scenario: Scenario
    noise: NoiseModel
    solve_env: Environment


class _SeedWords(np.random.SeedSequence):
    """A SeedSequence that hashes its state words once per (n_words, dtype) and
    hands each caller a copy: seeding a generator from it draws no new words."""

    def generate_state(self, n_words, dtype=np.uint32):
        memo = vars(self).setdefault("words", {})
        if (n_words, dtype) not in memo:
            memo[n_words, dtype] = super().generate_state(n_words, dtype)
        return memo[n_words, dtype].copy()


@functools.lru_cache(maxsize=SWEEP_BATCH_TRIALS)
def _seed_sequence(master_seed, trial_index):
    return _SeedWords(master_seed, spawn_key=(trial_index,))


def trial_rng(master_seed, trial_index):
    """Generator for one trial; depends only on (master_seed, trial_index).

    Each call returns a new generator, whose draws are those of
    ``default_rng(SeedSequence(master_seed, spawn_key=(trial_index,)))``.
    The SeedSequence is memoized and shared by every generator of that
    trial, and so are the state words it hashes for a generator's seed
    (most of what seeding costs); each :func:`run_sweep` starts an empty
    memo sized to hold every trial index of its sweep and frees it when the
    sweep ends.  A generator only reads its sequence, so the memo changes
    no draw, but spawning from one (``Generator.spawn``) advances the
    shared sequence's child counter: two generators of one trial spawn
    different children, each with its own spawn key.  Nothing in uwloc
    spawns from it.
    """
    return np.random.default_rng(_seed_sequence(master_seed, trial_index))


def _systems(config, measurements, anchors_m, env):
    """The ``gtrs._build`` stack of each fix in ``measurements`` (one, or a stack),
    weighted with the options of ``config``."""
    measurements.anchor_rows(anchors_m)  # checked before link_weights sees the readings
    if config.weighted:
        w = weighting.link_weights(measurements, env)
    else:
        w = np.full(measurements.rss_dbm.shape, 1.0 / len(measurements))
    return gtrs._build(measurements, w, anchors_m, env, not config.known_power)


def locate(config, measurements, anchors_m, env):
    """One fix with the solver options of ``config``: weight, build, solve.

    ``env`` is the environment the solver assumes, which a sensitivity
    sweep biases away from the one the measurements were drawn in.
    Returns the solver's Estimate.
    """
    return gtrs.solve(gtrs._only(_systems(config, measurements, anchors_m, env)))


def _readings(setting, config, trials):
    """The RSS of ``trials`` at one sweep point, one row each: the clean RSS once, plus
    each trial's noise from its own generator, as ``generate_measurements`` draws it."""
    scenario, seed, n = setting.scenario, config.master_seed, setting.scenario.n_anchors
    clean = noiseless_rss(scenario.target_m, scenario.anchors_m, scenario.environment)
    return clean + np.array([sample_noise(setting.noise, trial_rng(seed, t), n) for t in trials])


def _shared_builds(settings):
    """``settings`` in runs of consecutive points that share one Scenario object and
    one solver Environment object, which :func:`_point_systems` builds as one stack."""
    runs = itertools.groupby(settings, key=lambda s: (id(s.scenario), id(s.solve_env)))
    return [list(run) for _, run in runs]


def _point_systems(settings, config, trials):
    """The ``gtrs._Stack`` of ``trials`` at each point of ``settings``, point after point.

    The points share one Scenario and one solver Environment
    (:func:`_shared_builds`).  Each point's readings are drawn alone
    (:func:`_readings`), then all are built as one stack: one weighting and
    one ``gtrs._build``, whose rows get a one-row build's bits.  A check on
    what the rows share can fail on one point's readings alone (the
    weighting exponent overflows where any reading is too large), so where
    the stack raises, each point is built alone, and a point whose own build
    raises gets that error for each of its trials.
    """
    return _stacked_systems(settings, config, [_readings(s, config, trials) for s in settings])


def _stacked_systems(settings, config, readings):
    """:func:`_point_systems` of the points' drawn ``readings``, one array per point."""
    scenario = settings[0].scenario
    measurements = MeasurementSet(
        np.arange(scenario.n_anchors), np.concatenate(readings), scenario.environment
    )
    try:
        return _systems(config, measurements, scenario.anchors_m, settings[0].solve_env)
    except UwlocError as exc:
        if len(settings) == 1:
            return gtrs._dropped(exc, len(readings[0]), scenario.dimension, not config.known_power)
    return gtrs._join(
        [_stacked_systems([setting], config, [rss]) for setting, rss in zip(settings, readings)]
    )


def _trial_system(setting, config, trial_index):
    return gtrs._only(_point_systems([setting], config, [trial_index]))


def run_trial(config, trial_index):
    """One deterministic trial at the configured base settings.

    Returns (position, transmit power or None, solver estimate).
    """
    scenario = config.scenario
    setting = _TrialSetting("base", scenario, config.noise, scenario.environment)
    estimate = gtrs.solve(_trial_system(setting, config, trial_index))
    return estimate.position_m, estimate.transmit_power_dbm, estimate


def _fmt(value):
    return f"{value:g}"


def _sweep_settings(config):
    """Resolved trial settings, one per sweep coordinate."""
    base = config.scenario
    env = base.environment
    sigma = config.sweep_sigma_db
    at_sigma = f",sigma={_fmt(sigma)}"
    kind = config.sweep_kind

    def with_noise(sigma):
        return replace(config.noise, sigma_db=sigma)

    if kind == "sigma":
        return [
            _TrialSetting(f"sigma={_fmt(s)}", base, with_noise(s), env)
            for s in config.sigma_grid_db
        ]
    if kind == "anchor_count":
        counts = config.anchor_counts
        if counts is None:
            counts = range(base.dimension + 3, base.n_anchors + 1)
        return [
            _TrialSetting(f"n_anchors={count}{at_sigma}", base.subset(count), with_noise(sigma), env)
            for count in counts
        ]
    if kind in ("ple", "frequency"):
        if kind == "ple":
            envs = [(f"ple={_fmt(ple)}", replace(env, ple=ple)) for ple in config.ple_grid]
        else:  # absorption recomputed from the frequency
            envs = [
                (f"frequency_khz={_fmt(f)}", replace(env, frequency_khz=f, absorption_db_per_m=None))
                for f in config.frequency_grid_khz
            ]
        return [
            _TrialSetting(label + at_sigma, replace(base, environment=e), with_noise(sigma), e)
            for label, e in envs
        ]
    if kind == "noise_scenarios":
        return [
            _TrialSetting(f"noise={k},sigma={_fmt(s)}", base, NoiseModel(kind=k, sigma_db=s), env)
            for k in config.noise_kinds
            for s in config.sigma_grid_db
        ]
    points = []  # sensitivity: the solver assumes biased parameters
    for label, ple_bias, absorption_bias in config.bias_scenarios:
        biased_env = replace(
            env,
            ple=env.ple * (1.0 + ple_bias),
            absorption_db_per_m=env.absorption_db_per_m * (1.0 + absorption_bias),
        )
        points += [
            _TrialSetting(f"bias={label},sigma={_fmt(s)}", base, with_noise(s), biased_env)
            for s in config.sigma_grid_db
        ]
    return points


def point_bounds(scenario, sigma, known_power):
    """Zero-mean-Gaussian (CRLB_t, CRLB_p) at ``scenario``'s true parameters.

    CRLB_p is None when the transmit power is known.
    """
    if known_power:
        return crlb.fim_known_power(scenario, sigma).crlb_t_m, None
    report = crlb.fim_unknown_power(scenario, sigma)
    return report.crlb_t_m, report.crlb_p_db


def _squared_errors(positions, true_t):
    """||p - true_t||^2 of each position, in one reduction over the stack that
    adds each row's terms in the order np.sum adds them for one row."""
    return np.add.reduce((np.array(positions) - true_t) ** 2, axis=1)


def _record(setting, config, solved, rows, bounds, seconds_per_solve):
    """One sweep coordinate's ResultRecord from the slice ``rows`` of its group's
    ``gtrs._Solved`` stack, a row per trial, and its :func:`point_bounds`."""
    true_t = setting.scenario.target_m
    true_p = setting.scenario.environment.transmit_power_dbm
    errors, failures = solved.errors[rows], {}
    for trial, error in enumerate(errors):
        if error is not None:
            failures.setdefault(type(error).__name__, ([], str(error)))[0].append(trial)
    kept = np.array([error is None for error in errors])
    z = solved.z[rows]
    positions = z[kept, : setting.scenario.dimension]
    # The power read out with the ple _build used for these rows; a dropped row has none.
    power = gtrs._power_dbm(z[solved.power_valid[rows], -1], setting.solve_env.ple)
    power_err2 = (power - true_p) * (power - true_p)
    m = len(errors)
    n_solved = len(positions)
    nrmse_t = (
        float(np.sqrt(np.mean(_squared_errors(positions, true_t)))) if n_solved else float("nan")
    )
    if config.known_power:
        nrmse_p = None
        power_failures = 0
    else:
        nrmse_p = float(np.sqrt(np.mean(power_err2))) if len(power_err2) else None
        power_failures = n_solved - len(power_err2)
    crlb_t, crlb_p = bounds
    return ResultRecord(
        sweep_coord=setting.label,
        nrmse_t_m=nrmse_t,
        nrmse_p_db=nrmse_p,
        crlb_t_m=crlb_t,
        crlb_p_db=crlb_p,
        power_failures=power_failures,
        trials=m,
        seconds_per_solve=seconds_per_solve,
        solve_failures=m - n_solved,
        failures=tuple(
            (name, tuple(trials), message)
            for name, (trials, message) in sorted(failures.items())
        ),
    )


def _run_group(settings, bounds, config):
    """Sweep coordinates solved as one batch, with their :func:`point_bounds`.

    Each run of coordinates that share a build is one stack (:func:`_point_systems`);
    the runs' stacks are joined and solved as one, and each record reduces its
    coordinate's slice.  ``seconds_per_solve`` is the group's wall time per trial.
    """
    start = time.perf_counter()
    trials = range(config.mc_trials)
    runs = [_point_systems(run, config, trials) for run in _shared_builds(settings)]
    solved = gtrs._solve_stack(gtrs._join(runs))
    seconds = (time.perf_counter() - start) / len(solved.errors)
    m = config.mc_trials
    return [
        _record(setting, config, solved, slice(j * m, (j + 1) * m), bound, seconds)
        for j, (setting, bound) in enumerate(zip(settings, bounds))
    ]


def run_sweep(config):
    """All sweep coordinates of ``config``, each over ``mc_trials`` trials.

    Coordinates are taken in order into groups of at most
    SWEEP_BATCH_TRIALS trials (a larger coordinate is a group of its own),
    and each group's trials are solved as one batch.  The estimates are
    bit-identical to solving the trials one by one, so results depend
    only on (config, master_seed); only the recorded wall time varies.
    Every coordinate is bounded before any trial is drawn, so a sweep
    whose bound fails raises at once.  The memo of trial seed sequences
    (:func:`trial_rng`) starts empty, so each sweep builds its own, and is
    freed when the sweep ends.
    """
    global _seed_sequence  # sized to hold every trial index, so no lookup evicts another
    _seed_sequence = functools.lru_cache(max(SWEEP_BATCH_TRIALS, config.mc_trials))(
        _seed_sequence.__wrapped__)
    try:
        settings = _sweep_settings(config)
        bounds = [point_bounds(s.scenario, s.noise.sigma_db, config.known_power) for s in settings]
        per_group = max(1, SWEEP_BATCH_TRIALS // config.mc_trials)
        return [
            record
            for first in range(0, len(settings), per_group)
            for record in _run_group(
                settings[first : first + per_group], bounds[first : first + per_group], config
            )
        ]
    finally:
        _seed_sequence = functools.lru_cache(SWEEP_BATCH_TRIALS)(_seed_sequence.__wrapped__)


def measure_runtime(config):
    """Average wall-clock seconds per full pipeline solve, over 100 fixes.

    Covers weighting, system assembly, the bisection, and extraction;
    measurement generation is excluded.
    """
    scenario = config.scenario
    batches = [
        generate_measurements(scenario, config.noise, trial_rng(config.master_seed, i))
        for i in range(100)
    ]
    start = time.perf_counter()
    for measurements in batches:
        locate(config, measurements, scenario.anchors_m, scenario.environment)
    return (time.perf_counter() - start) / len(batches)


CSV_COLUMNS = (
    "sweep_coord",
    "nrmse_t_m",
    "nrmse_p_db",
    "crlb_t_m",
    "crlb_p_db",
    "power_failures",
    "trials",
    "seconds_per_solve",
)


def _csv_number(value):
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return ""
    return f"{value:.9g}"


def write_csv(records, stream, include_timing=False):
    """Write records as CSV with locale-independent 9-significant-digit numbers.

    Wall time is replaced by 0 unless ``include_timing`` is set, so default
    output is byte-identical across runs.
    """
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for record in records:
        seconds = record.seconds_per_solve if include_timing else 0.0
        row = (
            record.sweep_coord,
            _csv_number(record.nrmse_t_m),
            _csv_number(record.nrmse_p_db),
            _csv_number(record.crlb_t_m),
            _csv_number(record.crlb_p_db),
            str(record.power_failures),
            str(record.trials),
            _csv_number(seconds),
        )
        stream.write(",".join(row) + "\n")
