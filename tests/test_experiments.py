import io
import json
import time
from dataclasses import replace

import numpy as np
import pytest

import uwloc
from conftest import built_outcomes
from uwloc import experiments, gtrs
from uwloc.channel import NOISE_KINDS, Environment, MeasurementSet, NoiseModel, Scenario
from uwloc.channel import generate_measurements, sample_noise
from uwloc.cli import main
from uwloc.config import bundled_scenario_path, parse_scenario
from uwloc.errors import ConfigError, GeometryError, NumericalError, UwlocError
from uwloc.experiments import (
    CSV_COLUMNS,
    SWEEP_KINDS,
    ExperimentConfig,
    ResultRecord,
    measure_runtime,
    run_sweep,
    run_trial,
    trial_rng,
    write_csv,
)


@pytest.fixture()
def small_config(bundled_config):
    return replace(bundled_config, mc_trials=20)


class TestRunTrial:
    def test_deterministic_for_equal_inputs(self, small_config):
        first = run_trial(small_config, 3)
        second = run_trial(small_config, 3)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_distinct_trials_draw_distinct_noise(self, small_config):
        first = run_trial(small_config, 0)
        second = run_trial(small_config, 1)
        assert not np.array_equal(first[0], second[0])

    def test_near_noiseless_recovery_without_absorption(self, zero_absorption_scenario):
        config = ExperimentConfig(
            scenario=zero_absorption_scenario,
            noise=NoiseModel("zero_mean_gaussian", 1e-12),
            mc_trials=1,
            master_seed=7,
        )
        position, power, estimate = run_trial(config, 0)
        assert np.linalg.norm(position - zero_absorption_scenario.target_m) <= 1e-6
        assert abs(power) <= 1e-6
        assert estimate.power_valid

    def test_generator_depends_only_on_seed_and_index(self):
        a = trial_rng(99, 4).normal(size=5)
        b = trial_rng(99, 4).normal(size=5)
        c = trial_rng(99, 5).normal(size=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draws_do_not_depend_on_the_seed_sequence_memo(self, small_config):
        keys = [(99, 4), (99, 5), (0, 0), (2**40, 4095)]

        def assert_fresh_draws():
            for seed, trial in keys:
                fresh = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
                drawn = trial_rng(seed, trial)
                assert drawn.standard_normal(7).tobytes() == fresh.standard_normal(7).tobytes()
                assert drawn.random(3).tobytes() == fresh.random(3).tobytes()

        experiments._seed_sequence.cache_clear()
        assert_fresh_draws()  # cold
        assert_fresh_draws()  # warm
        assert experiments._seed_sequence.cache_info().hits == len(keys)
        experiments._seed_sequence.cache_clear()
        assert_fresh_draws()
        run_sweep(replace(small_config, master_seed=99, mc_trials=6))  # built (99, 0..5), then freed
        assert_fresh_draws()
        earlier = trial_rng(99, 4)
        earlier.spawn(2)
        assert_fresh_draws()
        # The sequence is shared, so a later generator of the trial spawns the next children.
        assert trial_rng(99, 4).spawn(1)[0].bit_generator.seed_seq.spawn_key == (4, 2)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_memoized_seed_words_draw_the_plain_sequences_draws(self, small_config, monkeypatch,
                                                                kind):
        # Inside a sweep, a trial's first generator hashes its sequence's state
        # words and the second reuses them; both draw what a plain sequence does.
        noise, seed, n = NoiseModel(kind, 3.0), 99, small_config.scenario.n_anchors
        pairs, run_group = [], experiments._run_group

        def spy(*args):
            for trial in (0, 5):
                plain = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
                expected = sample_noise(noise, plain, n).tobytes()
                pairs.extend((sample_noise(noise, trial_rng(seed, trial), n).tobytes(), expected)
                             for _ in range(2))
            return run_group(*args)

        monkeypatch.setattr(experiments, "_run_group", spy)
        run_sweep(replace(small_config, master_seed=seed, mc_trials=6))
        assert len(pairs) == 4 and all(got == expected for got, expected in pairs)
        assert_memo_freed()

    def test_spawned_children_are_the_plain_sequences_children(self):
        experiments._seed_sequence.cache_clear()
        plain = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(7,)))
        trial_rng(99, 7).random()  # the words are memoized
        for mine, theirs in zip(trial_rng(99, 7).spawn(2), plain.spawn(2)):
            assert mine.bit_generator.seed_seq.spawn_key == theirs.bit_generator.seed_seq.spawn_key
            assert mine.random(4).tobytes() == theirs.random(4).tobytes()
        experiments._seed_sequence.cache_clear()

    def test_a_sweep_builds_each_trials_seed_sequence_once(self, small_config, monkeypatch):
        config = replace(small_config, mc_trials=6)
        infos = memo_after_each_group(monkeypatch)
        for _ in range(2):
            run_sweep(config)
            # Five sigma points of six trials, one group: the first point misses, the other four hit.
            (info,) = infos
            assert (info.misses, info.hits, info.currsize) == (6, 24, 6)
            assert_memo_freed()
            infos.clear()

    def test_the_memo_holds_a_point_larger_than_the_batch_bound(self, small_config, monkeypatch):
        # Points of bound + 1 trials are groups of their own; a memo of only `bound`
        # sequences would evict each trial's entry before the next point reads it.
        bound = 8
        monkeypatch.setattr(experiments, "SWEEP_BATCH_TRIALS", bound)
        infos = memo_after_each_group(monkeypatch)
        run_sweep(replace(small_config, mc_trials=bound + 1, sigma_grid_db=(3.0, 9.0)))
        info = infos[-1]
        assert (info.misses, info.hits, info.currsize) == (bound + 1, bound + 1, bound + 1)
        assert info.maxsize == bound + 1
        # Outside a sweep the memo is empty and bounded by the batch bound.
        assert_memo_freed()
        run_sweep(replace(small_config, mc_trials=2, sigma_grid_db=(3.0,)))
        assert_memo_freed()

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    def test_locate_takes_one_fix(self, bundled_config, known_power, weighted):
        config = replace(bundled_config, known_power=known_power, weighted=weighted)
        scenario = config.scenario
        env = scenario.environment
        rss = uwloc.noiseless_rss(scenario.target_m, scenario.anchors_m, env)
        stacked = MeasurementSet(np.arange(scenario.n_anchors), np.stack([rss, rss]), env)
        with pytest.raises(ConfigError, match="measurements stack 2 fixes; this function takes one fix"):
            experiments.locate(config, stacked, scenario.anchors_m, env)


class TestValidation:
    def test_bad_trial_count(self, bundled_config):
        with pytest.raises(ConfigError):
            replace(bundled_config, mc_trials=0)

    def test_bad_sweep_kind(self, bundled_config):
        with pytest.raises(ConfigError):
            replace(bundled_config, sweep_kind="voltage")

    def test_bad_sigma_grid(self, bundled_config):
        with pytest.raises(ConfigError):
            replace(bundled_config, sigma_grid_db=(1.0, -3.0))

    def test_anchor_counts_out_of_range(self, bundled_config):
        with pytest.raises(ConfigError):
            replace(bundled_config, sweep_kind="anchor_count", anchor_counts=(4, 10))

    def test_errors_raised_before_any_trial(self, bundled_config):
        with pytest.raises(ConfigError):
            run_sweep(replace(bundled_config, mc_trials=-1))


def memo_after_each_group(monkeypatch):
    """The seed memo's cache_info() after each group of the sweeps to come, read
    inside the sweep (run_sweep frees the memo as it returns)."""
    infos, run_group = [], experiments._run_group

    def spy(*args):
        records = run_group(*args)
        infos.append(experiments._seed_sequence.cache_info())
        return records

    monkeypatch.setattr(experiments, "_run_group", spy)
    return infos


def assert_memo_freed():
    info = experiments._seed_sequence.cache_info()
    assert (info.currsize, info.maxsize) == (0, experiments.SWEEP_BATCH_TRIALS)


def solve_alone(setting, config, trial):
    """Trial ``trial`` of ``setting`` built and solved by itself: its Estimate, or the
    UwlocError that drops it."""
    try:
        return gtrs.solve(experiments._trial_system(setting, config, trial))
    except UwlocError as exc:
        return exc


def sweep_with_stacks(config, monkeypatch):
    """run_sweep's records and the gtrs._Solved stack of each of its groups."""
    stacks, solve_stack = [], gtrs._solve_stack

    def spy(stack):
        stacks.append(solve_stack(stack))
        return stacks[-1]

    monkeypatch.setattr(gtrs, "_solve_stack", spy)
    return run_sweep(config), stacks


def bits(value):
    return np.float64(value).tobytes()


def assert_rows_match_solve(solved, settings, config, trials):
    """Each row of the gtrs._Solved stack of ``trials`` at each point of ``settings``
    holds its one-by-one outcome: the Estimate's fields, bit for bit, the power read
    out of z with the ple of the row's point, or the class and message of the error
    that dropped it.  Returns those outcomes, row by row."""
    points = [setting for setting in settings for _ in trials]
    alone = [solve_alone(setting, config, t) for setting in settings for t in trials]
    assert len(solved.errors) == len(alone)
    for row, (setting, expected) in enumerate(zip(points, alone)):
        if isinstance(expected, UwlocError):
            assert type(solved.errors[row]) is type(expected)
            assert str(solved.errors[row]) == str(expected)
            continue
        assert solved.errors[row] is None
        assert same_bits(solved.z[row], expected.z)
        assert same_bits(solved.z[row, : setting.scenario.dimension], expected.position_m)
        for field in ("multiplier", "kkt_stationarity", "kkt_constraint", "kkt_min_eig_ratio"):
            assert bits(getattr(solved, field)[row]) == bits(getattr(expected, field)), field
        assert solved.iterations[row] == expected.iterations
        assert solved.power_valid[row] == expected.power_valid
        if expected.power_valid:
            power = gtrs._power_dbm(solved.z[row, -1], setting.solve_env.ple)
            assert bits(power) == bits(expected.transmit_power_dbm)
    return alone


class TestRunSweep:
    def test_single_trial_nrmse_is_the_trial_error(self, small_config):
        config = replace(small_config, mc_trials=1, sigma_grid_db=(3.0,))
        record = run_sweep(config)[0]
        position, power, _ = run_trial(replace(config, noise=NoiseModel("zero_mean_gaussian", 3.0)), 0)
        expected = np.linalg.norm(position - config.scenario.target_m)
        assert record.nrmse_t_m == pytest.approx(expected, rel=1e-12)
        assert record.nrmse_p_db == pytest.approx(abs(power - 0.0), rel=1e-12)
        assert record.trials == 1

    def test_two_sweeps_in_one_process_give_equal_records(self, small_config):
        config = replace(small_config, sweep_kind="noise_scenarios", mc_trials=8)
        first, second = run_sweep(config), run_sweep(config)
        untimed = [[replace(r, seconds_per_solve=0.0) for r in records] for records in (first, second)]
        assert untimed[0] == untimed[1] and len(first) == 15

    def test_records_carry_bounds_and_labels(self, small_config):
        config = replace(small_config, sigma_grid_db=(1.0, 3.0))
        records = run_sweep(config)
        assert [r.sweep_coord for r in records] == ["sigma=1", "sigma=3"]
        bound = uwloc.fim_unknown_power(config.scenario, 1.0)
        assert records[0].crlb_t_m == pytest.approx(bound.crlb_t_m, rel=1e-12)
        assert records[0].crlb_p_db == pytest.approx(bound.crlb_p_db, rel=1e-12)
        assert all(r.power_failures >= 0 for r in records)
        assert all(r.solve_failures == 0 for r in records)

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_batched_nrmse_equals_per_trial_recomputation(self, small_config, kind):
        config = replace(small_config, sweep_kind=kind, sigma_grid_db=(3.0, 5.0))
        records = run_sweep(config)
        settings = experiments._sweep_settings(config)
        assert [record.sweep_coord for record in records] == [s.label for s in settings]
        for record, setting in zip(records, settings):
            true_t = setting.scenario.target_m
            true_p = setting.scenario.environment.transmit_power_dbm
            err2, power_err2, dropped = [], [], {}
            for trial in range(config.mc_trials):
                try:
                    estimate = gtrs.solve(experiments._trial_system(setting, config, trial))
                except UwlocError as exc:
                    dropped.setdefault(type(exc).__name__, ([], str(exc)))[0].append(trial)
                    continue
                err2.append(float(np.sum((estimate.position_m - true_t) ** 2)))
                if estimate.power_valid:
                    error = estimate.transmit_power_dbm - true_p
                    power_err2.append(error * error)
            nrmse_t = float(np.sqrt(np.mean(np.array(err2)))) if err2 else float("nan")
            nrmse_p = float(np.sqrt(np.mean(np.array(power_err2)))) if power_err2 else None
            assert repr(record.nrmse_t_m) == repr(nrmse_t)
            assert record.nrmse_p_db == nrmse_p
            assert record.power_failures == len(err2) - len(power_err2)
            assert record.solve_failures == config.mc_trials - len(err2)
            assert record.failures == tuple(
                (name, tuple(trials), message)
                for name, (trials, message) in sorted(dropped.items())
            )

    @pytest.mark.parametrize("batch_trials", [1, 20, 50])
    def test_batch_size_leaves_the_csv_unchanged(self, small_config, monkeypatch, batch_trials):
        def csv_bytes():
            stream = io.StringIO()
            write_csv(run_sweep(small_config), stream)
            return stream.getvalue()

        whole = csv_bytes()
        sizes = []
        solve_stack = gtrs._solve_stack
        monkeypatch.setattr(
            gtrs, "_solve_stack", lambda stack: sizes.append(len(stack.errors)) or solve_stack(stack)
        )
        monkeypatch.setattr(experiments, "SWEEP_BATCH_TRIALS", batch_trials)
        assert csv_bytes() == whole
        # Five points of 20 trials, grouped whole and in order.
        assert sizes == {1: [20] * 5, 20: [20] * 5, 50: [40, 40, 20]}[batch_trials]

    def test_anchor_sweep_drops_last_listed_first(self, small_config):
        config = replace(small_config, sweep_kind="anchor_count", mc_trials=5)
        records = run_sweep(config)
        assert [r.sweep_coord for r in records] == [
            f"n_anchors={n},sigma=2" for n in (6, 7, 8, 9, 10)
        ]

    def test_known_power_sweep_has_no_power_metrics(self, small_config):
        config = replace(small_config, known_power=True, sigma_grid_db=(3.0,), mc_trials=5)
        record = run_sweep(config)[0]
        assert record.nrmse_p_db is None
        assert record.crlb_p_db is None
        assert record.power_failures == 0

    def test_noise_scenario_sweep_labels(self, small_config):
        config = replace(
            small_config, sweep_kind="noise_scenarios", sigma_grid_db=(3.0,), mc_trials=5
        )
        records = run_sweep(config)
        assert [r.sweep_coord for r in records] == [
            "noise=zero_mean_gaussian,sigma=3",
            "noise=biased_gaussian,sigma=3",
            "noise=gaussian_plus_impulsive,sigma=3",
        ]

    def test_sensitivity_sweep_applies_solver_bias(self, small_config):
        config = replace(
            small_config,
            sweep_kind="sensitivity",
            sigma_grid_db=(3.0,),
            mc_trials=10,
            bias_scenarios=(("unbiased", 0.0, 0.0), ("ple_high", 0.10, 0.0)),
        )
        records = run_sweep(config)
        assert records[0].sweep_coord == "bias=unbiased,sigma=3"
        assert records[1].sweep_coord == "bias=ple_high,sigma=3"
        # a biased assumed path-loss exponent must change the estimates
        assert records[1].nrmse_t_m != records[0].nrmse_t_m

    def test_frequency_sweep_recomputes_absorption(self, small_config):
        config = replace(
            small_config, sweep_kind="frequency", frequency_grid_khz=(9.0, 50.0), mc_trials=5
        )
        records = run_sweep(config)
        env50 = Environment(ple=2.0, frequency_khz=50.0, transmit_power_dbm=0.0)
        scenario50 = Scenario(
            config.scenario.anchors_m, config.scenario.target_m, env50
        )
        bound = uwloc.fim_unknown_power(scenario50, 2.0)
        assert records[1].crlb_t_m == pytest.approx(bound.crlb_t_m, rel=1e-12)


    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_stacked_result_equals_per_row_solve(
        self, bundled_config, monkeypatch, kind, known_power, weighted
    ):
        config = replace(
            bundled_config, sweep_kind=kind, known_power=known_power, weighted=weighted,
            mc_trials=8, sigma_grid_db=(3.0, 9.0),
        )
        _, (solved,) = sweep_with_stacks(config, monkeypatch)  # every point in one group
        settings = experiments._sweep_settings(config)
        assert_rows_match_solve(solved, settings, config, range(config.mc_trials))

    def test_a_rank_gate_drop_keeps_its_row(self, bundled_config, monkeypatch):
        # On the bundled sigma = 9 dB point, trial 210 alone fails the rank gate.
        config = replace(bundled_config, sigma_grid_db=(9.0,), mc_trials=211)
        (record,), (solved,) = sweep_with_stacks(config, monkeypatch)
        settings = experiments._sweep_settings(config)
        alone = assert_rows_match_solve(solved, settings, config, range(211))
        assert [i for i, outcome in enumerate(alone) if isinstance(outcome, UwlocError)] == [210]
        assert isinstance(alone[210], GeometryError)
        assert record.failures == (("GeometryError", (210,), str(alone[210])),)


def build_alone(setting, config, trial):
    """Trial ``trial`` of ``setting`` built by itself through the one-fix public functions."""
    rng = trial_rng(config.master_seed, trial)
    measurements = generate_measurements(setting.scenario, setting.noise, rng)
    env = setting.solve_env
    if config.weighted:
        weights = uwloc.link_weights(measurements, env)
    else:
        weights = np.full(len(measurements), 1.0 / len(measurements))
    build = gtrs.build_known_power_system if config.known_power else gtrs.build_system
    try:
        return build(measurements, weights, setting.scenario.anchors_m, env)
    except UwlocError as exc:
        return exc


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_builds(stacked, alone):
    """Each stacked outcome has the bits, or the error class and message, of its lone build."""
    assert len(stacked) == len(alone)
    for got, expected in zip(stacked, alone):
        assert type(got) is type(expected)
        if isinstance(expected, UwlocError):
            assert str(got) == str(expected)
            continue
        assert same_bits(got.design, expected.design)
        assert same_bits(got.target, expected.target)
        assert same_bits(got.normal, expected.design.T @ expected.design)
        assert same_bits(got.moment, expected.design.T @ expected.target)
        assert (got.dimension, got.ple) == (expected.dimension, expected.ple)


# Points per run of experiments._shared_builds at sigma_grid_db (3, 9): a sigma
# or noise-scenario sweep shares one scenario and environment throughout, a
# sensitivity sweep within each of its six biases, and the other kinds not at all.
SHARED_RUNS = {
    "sigma": [2],
    "anchor_count": [1] * 5,
    "ple": [1] * 5,
    "frequency": [1] * 3,
    "noise_scenarios": [6],
    "sensitivity": [2] * 6,
}


class TestStackedBuild:
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_point_stack_equals_one_row_builds(self, bundled_config, kind, known_power, weighted):
        config = replace(
            bundled_config, sweep_kind=kind, known_power=known_power, weighted=weighted,
            mc_trials=8, sigma_grid_db=(3.0, 9.0),
        )
        settings = experiments._sweep_settings(config)
        trials = range(config.mc_trials)
        alone = [[build_alone(setting, config, trial) for trial in trials] for setting in settings]
        for setting, builds in zip(settings, alone):
            assert_same_builds(built_outcomes(experiments._point_systems([setting], config, trials)), builds)
        # The group's merged stacks: each run of points that share a build, as _run_group builds it.
        runs = experiments._shared_builds(settings)
        assert [len(run) for run in runs] == SHARED_RUNS[kind]
        assert [s for run in runs for s in run] == settings
        first = 0
        for run in runs:
            assert_same_builds(
                built_outcomes(experiments._point_systems(run, config, trials)),
                [build for builds in alone[first : first + len(run)] for build in builds],
            )
            first += len(run)

    def test_failing_group_build_keeps_each_points_error(self, tmp_path, capsys):
        # At ple 1e-164 the sigma = 1 readings underflow the weighted system,
        # row by row, while the sigma = 1e146 ones overflow the weighting
        # exponent, which fails a whole stack: the merged build of the two
        # points raises, and each point is then built alone.
        doc = json.loads(bundled_scenario_path().read_text())
        doc.update(ple=1e-164, sigma_grid_db=[1, 1e146], mc_trials=3)
        path = tmp_path / "underflow_overflow.json"
        path.write_text(json.dumps(doc))
        underflow = "the weighted system underflows: readings or anchor coordinates are too small"
        overflow = "the link weighting exponent overflows: readings are too large"
        config = parse_scenario(path)
        settings = experiments._sweep_settings(config)
        readings = [experiments._readings(s, config, range(3)) for s in settings]
        merged = MeasurementSet(np.arange(10), np.concatenate(readings), config.scenario.environment)
        with pytest.raises(NumericalError, match=overflow):
            uwloc.link_weights(merged, settings[0].solve_env)
        records = run_sweep(config)
        assert [(r.sweep_coord, r.solve_failures, r.failures) for r in records] == [
            ("sigma=1", 3, (("NumericalError", (0, 1, 2), underflow),)),
            ("sigma=1e+146", 3, (("NumericalError", (0, 1, 2), overflow),)),
        ]
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[:4] == [
            "sigma=1: 3 of 3 trials dropped from the averages"
            " (NumericalError in 3, first trials 0, 1, 2)",
            f"  NumericalError, first at trial 0: {underflow}",
            "sigma=1e+146: 3 of 3 trials dropped from the averages"
            " (NumericalError in 3, first trials 0, 1, 2)",
            f"  NumericalError, first at trial 0: {overflow}",
        ]
        assert len(err) == 5 and err[4].startswith("seconds_per_solve=")

    def test_failing_group_build_drops_its_rows_from_the_search(self, tmp_path, monkeypatch):
        # The points of the test above: in the solved stack every row is
        # dropped with its point's error, and holds zeros.
        doc = json.loads(bundled_scenario_path().read_text())
        doc.update(ple=1e-164, sigma_grid_db=[1, 1e146], mc_trials=3)
        path = tmp_path / "underflow_overflow.json"
        path.write_text(json.dumps(doc))
        config = parse_scenario(path)
        _, (solved,) = sweep_with_stacks(config, monkeypatch)
        settings = experiments._sweep_settings(config)
        alone = assert_rows_match_solve(solved, settings, config, range(3))
        assert all(isinstance(outcome, NumericalError) for outcome in alone)
        assert not solved.power_valid.any() and not solved.z.any()

    def test_rank_gate_drops_only_its_trial(self, bundled_config):
        # On the bundled sigma = 9 dB point, trial 210 alone fails the rank gate.
        config = replace(bundled_config, sigma_grid_db=(9.0,), mc_trials=211)
        (setting,) = experiments._sweep_settings(config)
        stacked = built_outcomes(experiments._point_systems([setting], config, range(211)))
        assert_same_builds(stacked, [build_alone(setting, config, trial) for trial in range(211)])
        assert [i for i, outcome in enumerate(stacked) if isinstance(outcome, UwlocError)] == [210]
        assert isinstance(stacked[210], GeometryError)
        (record,) = run_sweep(config)
        assert (record.trials, record.solve_failures) == (211, 1)
        assert record.failures == (("GeometryError", (210,), str(stacked[210])),)
        assert np.isfinite(record.nrmse_t_m)


class TestSquaredErrors:
    """_record sums a point's squared position errors in one stacked reduction;
    each must have the bits of np.sum over that trial's error alone.  It reads
    the validity and the positions from slices of the solved stack and the
    powers out of its u; each must have the bits an Estimate of that trial
    alone held."""

    def test_matches_one_sum_per_trial_bit_for_bit(self):
        rng = np.random.default_rng(22)
        # Squares 1, 1e-16, 1e-16 sum to 1 from the left and to 1 + 2^-52 from
        # the right, so this row pins the order of the additions.
        batches = [([np.array([1.0, 1e-8, 1e-8])], np.zeros(3))]
        for _ in range(100):
            k, m = int(rng.choice([2, 3])), int(rng.choice([1, 7, 100, 2000]))
            target = rng.uniform(0.0, 5000.0, k)
            spread = 10.0 ** rng.uniform(-3.0, 4.0)
            batches.append(([target + spread * rng.standard_normal(k) for _ in range(m)], target))
        for positions, target in batches:
            stacked = experiments._squared_errors(positions, target)
            alone = [float(np.sum((p - target) ** 2)) for p in positions]
            assert stacked.tobytes() == np.array(alone).tobytes()
        assert experiments._squared_errors(*batches[0])[0] == 1.0

    @staticmethod
    def power_alone(u, ple):
        """An Estimate's power read-out of its u alone: the per-Estimate reference."""
        return 5.0 * ple * np.log10(u) if u > 0.0 else None

    def test_power_read_out_of_a_slice_matches_one_u_at_a_time(self):
        # The read-out is read where u > 0 (_finalize's power_valid, tested below).
        rng = np.random.default_rng(23)
        u = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 2000), rng.uniform(0.0, 3.0, 400),
                            [1.0, 10.0, 5e-324, np.inf]])
        u = u[u > 0.0]
        rng.shuffle(u)
        for ple in (1.5, 2.0, 2.2, 3.7):
            # Slices of odd lengths and offsets, so no SIMD tail is left untried.
            for first, last in ((0, len(u)), (1, 18), (3, 4), (7, 40), (11, 111), (5, 5)):
                part = u[first:last]
                stacked = gtrs._power_dbm(part, np.full(len(part), ple))
                for x, got in zip(part, stacked):
                    assert bits(got) == bits(self.power_alone(x, ple))

    @pytest.mark.parametrize("known_power", [False, True], ids=["joint", "known"])
    def test_finalize_flags_and_reads_each_row_as_its_estimate_did(self, bundled_config, known_power):
        # A solved stack of bundled sigma = 3 trials, finalized again with u of
        # either sign written into its solutions.  Each row's validity is the
        # scalar test u > 0 of a joint system, and its Estimate's power the
        # scalar read-out with its system's ple and its position the copy z[:k].
        config = replace(
            bundled_config, known_power=known_power, sigma_grid_db=(3.0,), mc_trials=40
        )
        (setting,) = experiments._sweep_settings(config)
        built = experiments._point_systems([setting], config, range(40))
        stack = gtrs._join([built])
        solved, eq = gtrs._solve_stack(stack), gtrs._Equilibrated(stack)
        z_hat = solved.z / eq.scale
        z_hat[::3, -1] *= -1.0
        z_hat[1::7, -1] = 0.0
        again = gtrs._finalize(eq, solved.multiplier, z_hat, solved.iterations, stack.errors)
        estimates = gtrs._estimates(again, built_outcomes(built))
        k, ple = setting.scenario.dimension, setting.solve_env.ple
        for row, estimate in enumerate(estimates):
            z = z_hat[row] * eq.scale[row]
            assert same_bits(again.z[row], z) and same_bits(estimate.position_m, z[:k].copy())
            expected = None if known_power else self.power_alone(z[-1], ple)
            assert again.power_valid[row] == estimate.power_valid == (expected is not None)
            if expected is None:
                assert estimate.transmit_power_dbm is None
            else:
                assert bits(estimate.transmit_power_dbm) == bits(expected)
        assert not again.power_valid.all() and (known_power or again.power_valid.any())

    def test_record_reduces_a_slice_as_it_reduced_its_estimates(self, small_config):
        # A synthetic solved stack: positions about the target, u of either sign,
        # and dropped rows.  The reference reduces the per-Estimate fields, one
        # trial at a time: the position z[:k].copy() and (power - true_p) squared
        # as x * x of an np.float64 power read out with the point's ple.
        rng = np.random.default_rng(24)
        setting = experiments._sweep_settings(small_config)[0]
        true_t = setting.scenario.target_m
        true_p = setting.scenario.environment.transmit_power_dbm + rng.uniform(-3.0, 3.0)
        setting = replace(setting, scenario=replace(setting.scenario, environment=replace(
            setting.scenario.environment, transmit_power_dbm=true_p)))
        k, ple = len(true_t), setting.solve_env.ple
        for _ in range(40):
            m = int(rng.choice([1, 7, 300]))
            z = np.zeros((3 * m, k + 2))
            z[:, :k] = true_t + 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal((3 * m, k))
            sign = rng.choice([-1.0, 1.0], 3 * m, p=[0.1, 0.9])
            z[:, -1] = sign * 10.0 ** rng.uniform(-2.0, 2.0, 3 * m)
            errors = [GeometryError("dropped") if rng.random() < 0.05 else None
                      for _ in range(3 * m)]
            z[[error is not None for error in errors]] = 0.0  # as _finalize leaves a dropped row
            zeros = np.zeros(3 * m)
            solved = gtrs._Solved(zeros, z, zeros.astype(int), zeros, zeros, zeros,
                                  z[:, -1] > 0.0, errors)
            record = experiments._record(
                setting, small_config, solved, slice(m, 2 * m), (1.0, 2.0), 0.0)
            positions, power_err2 = [], []
            for row in range(m, 2 * m):
                if errors[row] is None:
                    positions.append(z[row, :k].copy())
                    power = self.power_alone(z[row, -1], ple)
                    if power is not None:
                        power_err2.append((power - true_p) * (power - true_p))
            squared = experiments._squared_errors(positions, true_t) if positions else [np.nan]
            nrmse_t = np.sqrt(np.mean(squared))
            nrmse_p = float(np.sqrt(np.mean(np.array(power_err2)))) if power_err2 else None
            assert repr(record.nrmse_t_m) == repr(float(nrmse_t))
            assert record.nrmse_p_db == nrmse_p
            assert (record.power_failures, record.solve_failures) == (
                len(positions) - len(power_err2), m - len(positions))

    def test_record_squares_each_power_error_as_an_estimate_did(self, small_config):
        # Where the platform's pow(x, 2) and x * x round apart, a record of two
        # such powers can show which of the two it squared with (one power
        # would not: sqrt undoes either square to the same |x|).  Each record
        # must reduce x * x; some must differ from the pow reduction.
        setting = experiments._sweep_settings(small_config)[0]
        true_p, ple = setting.scenario.environment.transmit_power_dbm, setting.solve_env.ple
        u = 10.0 ** (np.random.default_rng(25).uniform(-30.0, 30.0, 60000) / (5.0 * ple))
        power = gtrs._power_dbm(u, ple)  # about +-30 dB
        pow_squares = np.array([(p - true_p) ** 2 for p in power])  # np.float64 scalars: C pow
        apart = (power - true_p) * (power - true_p) != pow_squares
        n = np.count_nonzero(apart) // 2 * 2
        z, zeros = np.ones((n, 5)), np.zeros(n)
        z[:, -1] = u[apart][:n]
        solved = gtrs._Solved(zeros, z, zeros.astype(int), zeros, zeros, zeros,
                              np.full(n, True), [None] * n)
        told_apart = 0
        for first in range(0, n, 2):
            rows = slice(first, first + 2)
            record = experiments._record(setting, small_config, solved, rows, (1.0, 2.0), 0.0)
            errors = power[apart][rows] - true_p
            assert record.nrmse_p_db == float(np.sqrt(np.mean(errors * errors)))
            told_apart += record.nrmse_p_db != float(np.sqrt(np.mean(pow_squares[apart][rows])))
        assert told_apart > 0


class TestRuntime:
    def test_positive_and_reasonably_stable(self, small_config):
        # The fastest of three readings each: load from other processes only slows a reading.
        first = min(measure_runtime(small_config) for _ in range(3))
        second = min(measure_runtime(small_config) for _ in range(3))
        assert first > 0 and second > 0
        assert abs(first - second) <= 0.5 * (first + second) / 2.0


class TestCsv:
    def test_column_order_and_formatting(self):
        record = ResultRecord(
            sweep_coord="sigma=3",
            nrmse_t_m=123.456789123,
            nrmse_p_db=None,
            crlb_t_m=1.0 / 3.0,
            crlb_p_db=2.5,
            power_failures=4,
            trials=100,
            seconds_per_solve=0.00123,
        )
        buffer = io.StringIO()
        write_csv([record], buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        fields = lines[1].split(",")
        assert fields[0] == "sigma=3"
        assert fields[1] == "123.456789"
        assert fields[2] == ""
        assert fields[3] == "0.333333333"
        assert fields[7] == "0"

    def test_timing_only_written_on_request(self):
        record = ResultRecord("sigma=1", 1.0, 1.0, 1.0, 1.0, 0, 1, 0.5)
        plain = io.StringIO()
        timed = io.StringIO()
        write_csv([record], plain)
        write_csv([record], timed, include_timing=True)
        assert plain.getvalue().splitlines()[1].endswith(",0")
        assert timed.getvalue().splitlines()[1].endswith(",0.5")
